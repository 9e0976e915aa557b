#include "sim/simulator.hh"

#include "common/logging.hh"
#include "common/trace.hh"

namespace sim {

void
Simulator::schedule(Duration delay, Callback fn)
{
    if (delay < 0)
        PANIC("negative event delay " << delay);
    // Snapshot the caller's context into the event — the causal link
    // between "X scheduled Y" and "Y's spans belong to X's
    // transaction". The run loop installs it before fn runs.
    queue_.schedule(now_ + delay, common::currentTraceContext(),
                    std::move(fn));
}

void
Simulator::scheduleAt(Time when, Callback fn)
{
    if (when < now_)
        PANIC("event scheduled in the past: " << when << " < " << now_);
    queue_.schedule(when, common::currentTraceContext(), std::move(fn));
}

void
Simulator::scheduleWithContext(Duration delay,
                               const common::TraceContext &ctx,
                               Callback fn)
{
    if (delay < 0)
        PANIC("negative event delay " << delay);
    queue_.schedule(now_ + delay, ctx, std::move(fn));
}

std::uint64_t
Simulator::runLoop(Time limit, bool bounded)
{
    std::uint64_t processed = 0;
    stopped_ = false;
    detail::FramePoolScope frames(pool_);
    while (!queue_.empty() && !stopped_) {
        if (bounded && queue_.nextTime() > limit)
            break;
        Event ev = queue_.pop();
        now_ = ev.when;
        // Each event runs under exactly the context it was scheduled
        // with; a span left open across a suspension cannot leak into
        // unrelated events.
        common::setCurrentTraceContext(ev.ctx);
        ev.fn();
        ++processed;
    }
    // Leave no event's context dangling for harness code that runs
    // between run calls.
    common::setCurrentTraceContext({});
    if (bounded && now_ < limit)
        now_ = limit;
    return processed;
}

std::uint64_t
Simulator::run()
{
    return runLoop(0, false);
}

std::uint64_t
Simulator::runUntil(Time t)
{
    if (t < now_)
        PANIC("runUntil into the past");
    return runLoop(t, true);
}

std::uint64_t
Simulator::runFor(Duration d, Duration grace)
{
    std::uint64_t n = runUntil(now_ + d);
    requestStop();
    n += runUntil(now_ + grace);
    return n;
}

} // namespace sim
