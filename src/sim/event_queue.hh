/**
 * @file
 * Deterministic time-ordered event queue.
 *
 * Events scheduled for the same instant fire in the order they were
 * scheduled (FIFO tie-break via a monotone sequence number), so a run
 * is fully reproducible regardless of library heap implementation
 * details.
 *
 * Hot-path design (see PERFORMANCE.md):
 *
 *  - The heap is a hand-rolled 4-ary min-heap of 24-byte POD entries
 *    (when, seq, slot index) over a std::vector; the callback and its
 *    TraceContext live in a recycled slot slab that sift operations
 *    never touch. Four children per node halves the tree depth (fewer
 *    entry moves per pop) and keeps each child group within two cache
 *    lines. The old std::priority_queue sifted whole events
 *    (const_cast to move out of top(), std::function payload
 *    copied/moved on every compare-swap).
 *
 *  - Events scheduled for the instant currently being processed (the
 *    overwhelmingly common delay-0 case: future resolutions, semaphore
 *    handoffs, quorum wakes) bypass the heap entirely and go into a
 *    FIFO bucket drained before time advances. A burst of N
 *    same-instant events costs N appends instead of N sift-up/down
 *    pairs. Ordering stays exact: any heap event at the bucket's
 *    instant was scheduled before time reached that instant, so it has
 *    a smaller seq than every bucket entry and is drained first.
 *
 *  - Each event carries the TraceContext it was scheduled under — the
 *    run loop installs it directly instead of wrapping the callback in
 *    a capture closure (the old wrapContext double-closure).
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace sim {

using common::Duration;
using common::Time;

/** A scheduled callback plus the context it was scheduled under. */
struct Event
{
    Time when = 0;
    std::uint64_t seq = 0;
    common::TraceContext ctx;
    Callback fn;
};

class EventQueue
{
  public:
    /** Schedule @p fn at absolute time @p when, to run under @p ctx.
     *  Takes the callback by rvalue reference so the only relocation
     *  is the one into the slot slab (or bucket). */
    void schedule(Time when, const common::TraceContext &ctx,
                  Callback &&fn);

    bool
    empty() const
    {
        return heap_.empty() && bucketHead_ >= bucket_.size();
    }

    std::size_t
    size() const
    {
        return heap_.size() + (bucket_.size() - bucketHead_);
    }

    /** Time of the earliest pending event. Queue must be non-empty. */
    Time
    nextTime() const
    {
        if (bucketHead_ < bucket_.size())
            return curTime_;
        if (!heap_.empty())
            return heap_.front().when;
        return nextTimeEmpty(); // out-of-line PANIC
    }

    /** Remove and return the earliest pending event. */
    Event pop();

  private:
    /** Cold path of nextTime(): always PANICs (queue empty). */
    [[noreturn]] Time nextTimeEmpty() const;

    /** Children per heap node. */
    static constexpr std::size_t kArity = 4;

    /** What the heap actually sifts: trivially copyable, 24 bytes. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Payload parked out of the heap's way until its entry pops. */
    struct Slot
    {
        common::TraceContext ctx;
        Callback fn;
    };

    /** Strict "fires before": min-order on (when, seq). Compared as one
     *  128-bit key — compiles to cmp/sbb with no data-dependent branch,
     *  which matters because real workloads fire bursts of equal-when
     *  events (a two-level compare mispredicts on the tie check). */
    static bool
    firesBefore(const HeapEntry &a, const HeapEntry &b)
    {
        const auto key = [](const HeapEntry &e) {
            return (static_cast<unsigned __int128>(
                        static_cast<std::uint64_t>(e.when))
                    << 64) |
                   e.seq;
        };
        return key(a) < key(b);
    }

    void siftUp(std::size_t i);
    /** Place @p e (the displaced tail entry) starting the hole at @p i. */
    void siftDown(std::size_t i, HeapEntry e);

    Event popHeap();

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** FIFO of events at curTime_; head index instead of pop_front so
     *  the storage is reused burst after burst. */
    std::vector<Event> bucket_;
    std::size_t bucketHead_ = 0;
    /** Instant of the most recently popped event; schedule() routes
     *  same-instant events into the bucket. */
    Time curTime_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim

#endif // SIM_EVENT_QUEUE_HH
