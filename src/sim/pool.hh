/**
 * @file
 * Per-simulator free-list allocator for short-lived DES bookkeeping
 * objects: future states and coroutine frames (see sim/task.hh).
 *
 * The simulator allocates and frees the same handful of object sizes
 * millions of times per run (one FutureState per RPC, one frame per
 * coroutine call, ...). Routing them through a size-classed free list
 * turns the steady state into pointer pops: a block is only ever
 * malloc'd the first time its size class grows, then recycled for the
 * rest of the run.
 *
 * Single-threaded by design, like the simulator that owns it: each
 * sweep cell gets a private Simulator and therefore a private pool, so
 * parallel sweeps share nothing. Blocks handed out must be returned
 * before the pool dies (futures must not outlive their Simulator —
 * already required, since resolving schedules onto it). Coroutine
 * frames are exempt: one freed after its pool died, or by another
 * pool's run loop, goes to the heap.
 */

#ifndef SIM_POOL_HH
#define SIM_POOL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

namespace sim::detail {

class BlockPool
{
  public:
    /** Free lists cover [1, kMaxBlock] bytes in kGranularity steps;
     *  larger requests pass through to the global heap. The bound
     *  covers the protocol's coroutine frames, the largest of which
     *  (MilanaClient::twoPhaseCommit's) holds a prepare request per
     *  participant shard. */
    static constexpr std::size_t kGranularity = 16;
    static constexpr std::size_t kMaxBlock = 4096;

    BlockPool() = default;
    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;

    ~BlockPool()
    {
        for (void *head : free_) {
            while (head) {
                void *next = *static_cast<void **>(head);
                ::operator delete(head);
                head = next;
            }
        }
    }

    void *
    allocate(std::size_t size)
    {
        if (size > kMaxBlock)
            return ::operator new(size);
        const std::size_t cls = classIndex(size);
        if (void *p = free_[cls]) {
            free_[cls] = *static_cast<void **>(p);
            ++reused_;
            return p;
        }
        ++fresh_;
        return ::operator new((cls + 1) * kGranularity);
    }

    void
    deallocate(void *p, std::size_t size) noexcept
    {
        if (size > kMaxBlock) {
            ::operator delete(p);
            return;
        }
        const std::size_t cls = classIndex(size);
        *static_cast<void **>(p) = free_[cls];
        free_[cls] = p;
    }

    /** Blocks that had to come from the global heap (pool misses). */
    std::uint64_t freshAllocations() const { return fresh_; }
    /** Blocks served from a free list (steady-state hits). */
    std::uint64_t reusedAllocations() const { return reused_; }

    /** Blocks waiting in the free lists (walks every list). */
    std::size_t
    freeBlocks() const
    {
        std::size_t n = 0;
        for (void *p : free_) {
            for (; p != nullptr; p = *static_cast<void **>(p))
                ++n;
        }
        return n;
    }

  private:
    static std::size_t
    classIndex(std::size_t size)
    {
        return (size + kGranularity - 1) / kGranularity - 1;
    }

    std::array<void *, kMaxBlock / kGranularity> free_{};
    std::uint64_t fresh_ = 0;
    std::uint64_t reused_ = 0;
};

/**
 * The pool coroutine frames use on this thread (sim/task.hh): the
 * owning simulator's, installed by its run loop for the loop's
 * duration; null outside run loops. Per simulator, not per thread, so
 * a cell's allocations do not depend on what ran before it.
 */
inline thread_local BlockPool *t_framePool = nullptr;

/** RAII: route this thread's coroutine frames to @p pool for a scope. */
class FramePoolScope
{
  public:
    explicit FramePoolScope(BlockPool &pool) : prev_(t_framePool)
    {
        t_framePool = &pool;
    }
    ~FramePoolScope() { t_framePool = prev_; }

    FramePoolScope(const FramePoolScope &) = delete;
    FramePoolScope &operator=(const FramePoolScope &) = delete;

  private:
    BlockPool *prev_;
};

} // namespace sim::detail

#endif // SIM_POOL_HH
