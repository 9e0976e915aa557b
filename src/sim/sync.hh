/**
 * @file
 * Cooperative synchronization primitives for simulation coroutines.
 *
 * These are not thread-safe and need not be: the simulator is
 * single-threaded. They exist because coroutines interleave at await
 * points, which creates the same logical races as preemptive threads.
 *
 *  - Semaphore: bounded resource (e.g. an SSD's hardware queue depth).
 *  - Mutex:     exclusive section spanning awaits (e.g. GC vs. writes).
 *  - Quorum:    wait until k of n expected arrivals (replication ACKs).
 *  - SharedQuorum: a pool-allocated Quorum whose late arrivals may
 *               outlive the waiter (a primary answering at f acks).
 *
 * Waiter lifetime rule: a waiter's list node lives in its suspended
 * frame. Semaphore and Mutex keep their waiters on an intrusive FIFO
 * list whose nodes are the awaiter objects themselves, which sit in
 * the awaiting coroutine's frame from suspension until the wake event
 * resumes it. Queueing a waiter therefore never allocates. The list
 * only links nodes: it unlinks one before scheduling its wake, and a
 * primitive destroyed with waiters still queued touches none of their
 * frames (those coroutines simply never resume).
 */

#ifndef SIM_SYNC_HH
#define SIM_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/simulator.hh"

namespace sim {

namespace detail {

/**
 * A suspended coroutine plus the TraceContext it was suspended under.
 * Wakeups are scheduled from the *releaser's* stack (release/unlock/
 * arrive), so the waiter's context must be pinned at suspension and
 * the wakeup event scheduled under it (scheduleWithContext) —
 * otherwise the waiter would be stamped with the releaser's
 * transaction. `next` links the node into a WaiterList.
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

/** Counting semaphore with FIFO wakeup. */
class Semaphore
{
  public:
    Semaphore(Simulator &sim, std::int64_t initial)
        : sim_(sim), count_(initial)
    {
    }

    /** Awaitable acquire of one unit. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;
            detail::Waiter node{};
            bool fast = false;

            bool
            await_ready() noexcept
            {
                if (sem.count_ > 0 && sem.waiters_.empty()) {
                    fast = true;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                node = detail::Waiter::suspend(h);
                sem.waiters_.push(node);
            }

            // The slow path's unit was already reserved by pump().
            void
            await_resume()
            {
                if (fast)
                    --sem.count_;
            }
        };
        return Awaiter{*this};
    }

    /** Release one unit, waking the oldest waiter (as a new event). */
    void
    release()
    {
        ++count_;
        pump();
    }

    std::int64_t available() const { return count_; }
    std::size_t waiting() const { return waiters_.size(); }

  private:
    void
    pump()
    {
        while (count_ > 0 && !waiters_.empty()) {
            // Reserve the unit here so an acquire() racing in before
            // the scheduled resume cannot steal it.
            --count_;
            waiters_.pop().wake(sim_);
        }
    }

    Simulator &sim_;
    std::int64_t count_;
    detail::WaiterList waiters_;
};

/** Async mutex: exclusive ownership across awaits; FIFO handoff. */
class Mutex
{
  public:
    explicit Mutex(Simulator &sim) : sim_(sim) {}

    auto
    lock()
    {
        struct Awaiter
        {
            Mutex &mtx;
            detail::Waiter node{};

            bool
            await_ready() const noexcept
            {
                return !mtx.locked_ && mtx.waiters_.empty();
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                node = detail::Waiter::suspend(h);
                mtx.waiters_.push(node);
            }

            void await_resume() { mtx.locked_ = true; }
        };
        return Awaiter{*this};
    }

    void
    unlock()
    {
        if (!locked_)
            PANIC("unlock of unlocked mutex");
        locked_ = false;
        if (!waiters_.empty()) {
            locked_ = true; // hand off directly; awaiter re-asserts
            waiters_.pop().wake(sim_);
        }
    }

    bool locked() const { return locked_; }
    std::size_t waiting() const { return waiters_.size(); }

  private:
    Simulator &sim_;
    bool locked_ = false;
    detail::WaiterList waiters_;
};

/** RAII guard for Mutex (use after co_await m.lock()). */
class LockGuard
{
  public:
    explicit LockGuard(Mutex &m) : mtx_(&m) {}
    ~LockGuard()
    {
        if (mtx_)
            mtx_->unlock();
    }
    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;
    LockGuard(LockGuard &&other) noexcept
        : mtx_(std::exchange(other.mtx_, nullptr))
    {
    }

  private:
    Mutex *mtx_;
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
 * Handle to a Quorum taken from the simulator's BlockPool, for
 * fan-outs whose late arrivals can outlive the waiter: a primary
 * answers once f backups acked while the rest are still in flight,
 * and each spawned child holds a handle until its ack lands. The
 * refcount is intrusive and non-atomic (a simulator is confined to
 * one thread), as for future states (sim::detail::StateRef), so a
 * round costs a free-list pop rather than a make_shared, and the
 * block returns to the pool when the last handle drops. Like a future
 * state, a SharedQuorum must not outlive its Simulator.
 */
class SharedQuorum
{
  public:
    SharedQuorum(Simulator &sim, std::uint32_t needed)
        : node_(::new (sim.pool().allocate(sizeof(Node)))
                    Node{Quorum(sim, needed)})
    {
    }

    SharedQuorum(const SharedQuorum &other) : node_(other.node_)
    {
        ++node_->refs;
    }

    SharedQuorum(SharedQuorum &&other) noexcept
        : node_(std::exchange(other.node_, nullptr))
    {
    }

    SharedQuorum &
    operator=(SharedQuorum other) noexcept
    {
        std::swap(node_, other.node_);
        return *this;
    }

    ~SharedQuorum()
    {
        if (node_ == nullptr || --node_->refs != 0)
            return;
        Simulator &sim = node_->quorum.sim_;
        node_->~Node();
        sim.pool().deallocate(node_, sizeof(Node));
    }

    Quorum *operator->() const { return &node_->quorum; }

  private:
    struct Node
    {
        Quorum quorum;
        std::uint32_t refs = 1;
    };

    Node *node_;
};

} // namespace sim

#endif // SIM_SYNC_HH
