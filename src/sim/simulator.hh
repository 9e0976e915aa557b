/**
 * @file
 * The discrete-event simulator: owns virtual time and the event queue.
 *
 * All protocol code in this repository runs as coroutines driven by a
 * Simulator. Each simulator is single-threaded and deterministic: with
 * the same seed and configuration, every run produces identical
 * results. Parallel sweeps (bench::SweepRunner) run one private
 * Simulator per cell on its own thread; simulators share no state.
 *
 * Typical harness structure:
 * @code
 *   sim::Simulator s;
 *   sim::spawn(clientLoop(s, ...));     // start background coroutines
 *   s.runFor(15 * common::kSecond);     // simulate 15 seconds
 * @endcode
 *
 * Hot-path notes (see PERFORMANCE.md): schedule() snapshots the
 * caller's TraceContext into the Event itself — the run loop installs
 * it before the callback runs, so no capture wrapper is allocated.
 * Callbacks are sim::Callback (48-byte inline storage, no heap for
 * typical captures). The simulator also owns a BlockPool that recycles
 * future states and, while its run loop executes, coroutine frames for
 * the run's lifetime.
 */

#ifndef SIM_SIMULATOR_HH
#define SIM_SIMULATOR_HH

#include <cstdint>

#include "common/trace.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"

namespace sim {

class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time ("TrueTime" — perfectly accurate). */
    Time now() const { return now_; }

    /** Schedule @p fn after @p delay (>= 0) from now. The event runs
     *  under the caller's current TraceContext. */
    void schedule(Duration delay, Callback fn);

    /** Schedule @p fn at absolute time @p when (>= now). */
    void scheduleAt(Time when, Callback fn);

    /**
     * Schedule @p fn after @p delay, to run under @p ctx instead of
     * the caller's context. This is how a releaser (promise resolve,
     * semaphore release, mutex unlock) wakes a waiter inside the
     * *waiter's* transaction without a context-restoring wrapper
     * closure.
     */
    void scheduleWithContext(Duration delay,
                             const common::TraceContext &ctx,
                             Callback fn);

    /**
     * Run until the event queue is empty or stop() is called.
     * @return the number of events processed.
     */
    std::uint64_t run();

    /**
     * Process all events up to and including time @p t, then set the
     * clock to @p t. Later events stay queued.
     */
    std::uint64_t runUntil(Time t);

    /**
     * Simulate for @p d: process events in [now, now + d], raising the
     * stop-requested flag at the deadline so periodic background
     * processes (GC, clock sync, workload loops) wind down, then drain
     * whatever completes within @p grace additional virtual time.
     */
    std::uint64_t runFor(Duration d, Duration grace = common::kSecond);

    /** Ask cooperative background loops to wind down. */
    void requestStop() { stopRequested_ = true; }
    bool stopRequested() const { return stopRequested_; }

    /** Abort run() from inside an event (used by a few tests). */
    void stop() { stopped_ = true; }

    std::size_t pendingEvents() const { return queue_.size(); }

    /** Free-list allocator for per-simulator bookkeeping (future
     *  states, coroutine frames). Objects allocated here must not
     *  outlive the simulator; frames are exempt (see sim/task.hh). */
    detail::BlockPool &pool() { return pool_; }

  private:
    std::uint64_t runLoop(Time limit, bool bounded);

    EventQueue queue_;
    detail::BlockPool pool_;
    Time now_ = 0;
    bool stopped_ = false;
    bool stopRequested_ = false;
};

} // namespace sim

#endif // SIM_SIMULATOR_HH
