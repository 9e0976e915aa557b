/**
 * @file
 * Cooperative synchronization primitives for simulation coroutines.
 *
 * These are not thread-safe and need not be: the simulator is
 * single-threaded. They exist because coroutines interleave at await
 * points, which creates the same logical races as preemptive threads.
 *
 *  - Semaphore: bounded resource (e.g. an SSD's hardware queue depth);
 *               one of one unit is the mutex of a section spanning
 *               awaits (an SSD channel, a key stripe's read-modify-
 *               write).
 *  - Quorum:    wait until k of n expected arrivals (replication ACKs).
 *  - SharedQuorum: a pool-allocated Quorum whose late arrivals may
 *               outlive the waiter (a primary answering at f acks).
 *
 * Waiter lifetime rule: a waiter's list node lives in its suspended
 * frame. Semaphore keeps its waiters on an intrusive FIFO list whose
 * nodes are the awaiter objects themselves, which sit in the awaiting
 * coroutine's frame from suspension until the wake event resumes it.
 * Queueing a waiter therefore never allocates. The list only links
 * nodes: it unlinks one before scheduling its wake, and a primitive
 * destroyed with waiters still queued touches none of their frames
 * (those coroutines simply never resume).
 */

#ifndef SIM_SYNC_HH
#define SIM_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/simulator.hh"

namespace sim {

namespace detail {

/**
 * A suspended coroutine plus the TraceContext it was suspended under.
 * Wakeups are scheduled from the *releaser's* stack (release/arrive),
 * so the waiter's context must be pinned at suspension and the wakeup
 * event scheduled under it (scheduleWithContext) — otherwise the
 * waiter would be stamped with the releaser's transaction. `next`
 * links the node into a WaiterList.
 */
struct Waiter
{
    std::coroutine_handle<> handle;
    common::TraceContext ctx;
    Waiter *next = nullptr;

    static Waiter
    suspend(std::coroutine_handle<> h)
    {
        return Waiter{h, common::currentTraceContext()};
    }

    /** Schedule the resume as a zero-delay event under the waiter's
     *  own context; the event captures only the handle. */
    void
    wake(Simulator &sim) const
    {
        sim.scheduleWithContext(0, ctx, [h = handle] { h.resume(); });
    }
};

/**
 * Intrusive FIFO of Waiters. The list neither owns, allocates nor
 * frees its nodes: each is an awaiter member living in a suspended
 * coroutine's frame (see the lifetime rule in the file comment).
 */
class WaiterList
{
  public:
    WaiterList() = default;
    WaiterList(const WaiterList &) = delete;
    WaiterList &operator=(const WaiterList &) = delete;

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }

    void
    push(Waiter &w)
    {
        w.next = nullptr;
        if (tail_ != nullptr)
            tail_->next = &w;
        else
            head_ = &w;
        tail_ = &w;
        ++size_;
    }

    /** Unlink the oldest node; the list is non-empty. */
    Waiter &
    pop()
    {
        Waiter &w = *head_;
        head_ = w.next;
        if (head_ == nullptr)
            tail_ = nullptr;
        --size_;
        return w;
    }

  private:
    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace detail

/**
 * Counting semaphore with FIFO wakeup. A waiter gets a unit on the
 * fast path only if one is free and nobody waits; a release hands its
 * unit to the oldest waiter and wakes it as one zero-delay event.
 */
class Semaphore
{
  public:
    Semaphore(Simulator &sim, std::int64_t initial)
        : sim_(sim), count_(initial), capacity_(initial)
    {
    }

    /** Releases one acquired unit at scope exit, for a section with
     *  early returns (use after co_await sem.acquire()). */
    class Held
    {
      public:
        explicit Held(Semaphore &sem) : sem_(sem) {}
        ~Held() { sem_.release(); }
        Held(const Held &) = delete;
        Held &operator=(const Held &) = delete;

      private:
        Semaphore &sem_;
    };

    /** Awaitable acquire of one unit. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;
            detail::Waiter node{};

            bool
            await_ready() noexcept
            {
                if (sem.count_ <= 0 || !sem.waiters_.empty())
                    return false;
                --sem.count_;
                return true;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                node = detail::Waiter::suspend(h);
                sem.waiters_.push(node);
            }

            // A woken waiter's unit was handed over by release().
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Release one unit, handing it to the oldest waiter (woken as a
     *  new event). Releasing a unit nobody holds is a bug. */
    void
    release()
    {
        if (count_ >= capacity_)
            PANIC("semaphore released beyond its " << capacity_ << " units");
        // A waiter takes the unit here, not when it resumes, so an
        // acquire() racing in before the scheduled resume cannot steal
        // it.
        if (waiters_.empty())
            ++count_;
        else
            waiters_.pop().wake(sim_);
    }

    std::int64_t available() const { return count_; }
    std::size_t waiting() const { return waiters_.size(); }

  private:
    Simulator &sim_;
    std::int64_t count_;
    const std::int64_t capacity_;
    detail::WaiterList waiters_;
};

/**
 * Quorum barrier: a coordinator awaits until at least @p needed of the
 * expected arrivals have happened. Extra (late) arrivals are accepted
 * and counted but wake nobody.
 */
class Quorum
{
  public:
    Quorum(Simulator &sim, std::uint32_t needed)
        : sim_(sim), needed_(needed)
    {
    }

    void
    arrive()
    {
        ++arrived_;
        if (arrived_ == needed_ && waiter_.handle) {
            auto w = waiter_;
            waiter_ = {};
            w.wake(sim_);
        }
    }

    std::uint32_t arrived() const { return arrived_; }
    bool satisfied() const { return arrived_ >= needed_; }

    /** Awaitable: resumes once satisfied. Single waiter only. */
    auto
    wait()
    {
        struct Awaiter
        {
            Quorum &q;

            bool await_ready() const noexcept { return q.satisfied(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                if (q.waiter_.handle)
                    PANIC("Quorum supports a single waiter");
                q.waiter_ = detail::Waiter::suspend(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    friend class SharedQuorum;

    Simulator &sim_;
    std::uint32_t needed_;
    std::uint32_t arrived_ = 0;
    detail::Waiter waiter_{};
};

/**
 * A Quorum in the simulator's BlockPool, for fan-outs whose late
 * arrivals can outlive the waiter: a primary answers once f backups
 * acked while the rest are still in flight, and each spawned child
 * holds a copy until its ack lands. Copies share the quorum through
 * detail::PoolRef, the refcounted handle future states use, so a
 * round costs a free-list pop and the block returns to the pool with
 * the last copy. Like a future, it must not outlive its Simulator.
 */
class SharedQuorum
{
  public:
    SharedQuorum(Simulator &sim, std::uint32_t needed)
        : node_(detail::PoolRef<Node>::make(sim, needed))
    {
    }

    Quorum *operator->() const { return node_.get(); }

  private:
    struct Node : Quorum
    {
        using Quorum::Quorum;
        Simulator &simulator() const { return sim_; }
        std::uint32_t refs = 1;
    };

    detail::PoolRef<Node> node_;
};

} // namespace sim

#endif // SIM_SYNC_HH
