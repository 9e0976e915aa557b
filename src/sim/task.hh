/**
 * @file
 * Coroutine task type for simulation processes.
 *
 * Task<T> is a lazily-started coroutine. It is consumed in one of two
 * ways:
 *
 *  - `T x = co_await someTask();` — structured: the child runs, and the
 *    awaiting coroutine resumes with its result. The temporary Task
 *    owns the frame and destroys it after resumption.
 *
 *  - `sim::spawn(someTask());` — detached: the task starts immediately
 *    and owns itself; its frame is destroyed when it completes. Used
 *    for top-level processes (client loops, server timers).
 *
 * Exceptions: this codebase reports failures through return values
 * (status enums), not exceptions. An exception escaping a coroutine is
 * a bug and panics.
 */

#ifndef SIM_TASK_HH
#define SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <new>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"
#include "sim/pool.hh"

namespace sim {

template <typename T>
class Task;

namespace detail {

/** State shared by value and void promise types. */
template <typename Promise>
struct PromiseBase
{
    std::coroutine_handle<> continuation;
    bool detached = false;

    /**
     * Frames recycle through the pool of the simulator whose run loop
     * is executing on this thread (t_framePool): a transaction creates
     * and destroys dozens of short-lived frames, one per RPC leg,
     * handler, storage and flash call, and after warm-up each is a
     * free-list pop instead of a malloc.
     *
     * A header in front of each frame names the pool it came from. The
     * frame goes back to that pool only if that pool's run loop frees
     * it. A frame freed anywhere else goes to the heap: outside its
     * run loop the owning simulator may already be gone (a Task
     * destroyed by harness code), and another simulator's pool would
     * collect a block it never hands out again. Frames made outside
     * run loops come from the heap.
     */
    struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) FrameHeader
    {
        BlockPool *owner;
    };

    static void *
    operator new(std::size_t size)
    {
        BlockPool *pool = t_framePool;
        const std::size_t bytes = size + sizeof(FrameHeader);
        void *block = pool != nullptr ? pool->allocate(bytes)
                                      : ::operator new(bytes);
        return ::new (block) FrameHeader{pool} + 1;
    }

    static void
    operator delete(void *frame, std::size_t size) noexcept
    {
        FrameHeader *header = static_cast<FrameHeader *>(frame) - 1;
        BlockPool *owner = header->owner;
        if (owner != nullptr && owner == t_framePool)
            owner->deallocate(header, size + sizeof(FrameHeader));
        else
            ::operator delete(header);
    }

    std::suspend_always
    initial_suspend() noexcept
    {
        return {};
    }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto &p = h.promise();
            if (p.continuation)
                return p.continuation;
            if (p.detached)
                h.destroy();
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void
    unhandled_exception()
    {
        PANIC("unhandled exception escaped a sim::Task coroutine");
    }
};

} // namespace detail

/**
 * A lazily-started coroutine returning T (or void).
 */
template <typename T>
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::PromiseBase<promise_type>
    {
        T value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            value = std::forward<U>(v);
        }
    };

    Task() = default;

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    /** Awaiting a task starts it and resumes the awaiter on completion. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> child;

            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                child.promise().continuation = parent;
                return child;
            }

            T
            await_resume()
            {
                return std::move(child.promise().value);
            }
        };
        return Awaiter{handle_};
    }

  private:
    template <typename U>
    friend void spawn(Task<U> task);

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    /** Release ownership of the frame (for spawn). */
    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, nullptr);
    }

    std::coroutine_handle<promise_type> handle_;
};

/** Task<void> specialization. */
template <>
class [[nodiscard]] Task<void>
{
  public:
    struct promise_type : detail::PromiseBase<promise_type>
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    Task() = default;

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }

    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> child;

            bool await_ready() const noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                child.promise().continuation = parent;
                return child;
            }

            void await_resume() {}
        };
        return Awaiter{handle_};
    }

  private:
    template <typename U>
    friend void spawn(Task<U> task);

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, nullptr);
    }

    std::coroutine_handle<promise_type> handle_;
};

/**
 * Start a task as a detached top-level process. The coroutine frame
 * frees itself on completion. If the task never completes (e.g. it is
 * still waiting on a future when the simulation is abandoned), its
 * frame is leaked — harness code should let processes wind down via
 * Simulator::runFor.
 */
template <typename T>
void
spawn(Task<T> task)
{
    auto h = task.release();
    if (!h)
        PANIC("spawn() of an empty task");
    h.promise().detached = true;
    // The child runs inline up to its first suspension and inherits
    // the spawner's TraceContext; the scope puts the spawner's context
    // back afterwards, so a span the child opened (and left open
    // across its suspension) cannot leak into the spawner's siblings.
    common::TraceContextScope scope(common::currentTraceContext());
    h.resume();
}

} // namespace sim

#endif // SIM_TASK_HH
