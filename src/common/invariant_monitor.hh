/**
 * @file
 * Online invariant monitoring over the trace stream.
 *
 * An InvariantMonitor attaches to a TraceLog as its append observer
 * and checks, while the simulation runs, the correctness properties
 * the MILANA design argues for (paper §3):
 *
 *  1. commit-monotonic — per-key commit timestamps never decrease
 *     (`milana.key.commit` instants; equal stamps are legal: recovery
 *     may re-apply a commit, and distinct clients may share a stamp).
 *     Instants tagged "late" — CTP orphan resolution or recovery
 *     replay catching a replica up on an outcome it missed — are
 *     exempt: they may land after newer versions committed elsewhere
 *     and are safe on the multi-version backend.
 *  2. snapshot-read — a *committed* transaction never observed a
 *     version stamped after its begin timestamp (§3.2). Only valid on
 *     multi-version backends; single-version FTLs legitimately return
 *     newer data and rely on validation to abort, so this check is
 *     gated by Config::checkSnapshotReads.
 *  3. replication-before-ack — a server never acks a prepare/put as
 *     durable before its replication span finished (SEMEL's write
 *     path, §4). Gated by Config::checkReplicationBeforeAck (only
 *     meaningful with > 1 replica).
 *  4. queue-depth — per-SSD admitted op concurrency never exceeds
 *     Config::maxQueueDepth (`flash.ssd.admit`/`release` instants).
 *
 * Violations are collected (and optionally printed immediately) with
 * the offending transaction's assembled timeline, so a failed run
 * points at a concrete causal history instead of a counter.
 *
 * The monitor sees *every* append, before ring eviction, so its
 * verdict is independent of the trace window size.
 */

#ifndef COMMON_INVARIANT_MONITOR_HH
#define COMMON_INVARIANT_MONITOR_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/trace.hh"
#include "common/types.hh"

namespace common {

class InvariantMonitor
{
  public:
    struct Config
    {
        bool checkCommitMonotonic = true;
        /** Only sound on multi-version backends (see file comment). */
        bool checkSnapshotReads = false;
        /** Only meaningful when replication is configured (> 1
         *  replica / SEMEL backups present). */
        bool checkReplicationBeforeAck = false;
        /** 0 disables the queue-depth check. */
        std::int64_t maxQueueDepth = 128;
        /** Print each violation to @p err as soon as it is detected. */
        bool failFast = true;
    };

    struct Violation
    {
        std::string invariant; ///< "commit-monotonic", ...
        std::string message;
        std::uint64_t traceId = 0; ///< 0 when not txn-scoped
        Time trueTime = 0;
        /** The offending transaction's buffered events (may be
         *  truncated to kMaxTimelineEvents). */
        std::vector<TraceEvent> timeline;
    };

    /** Default config, no violation printing. */
    InvariantMonitor();
    explicit InvariantMonitor(Config config, std::ostream *err = nullptr);

    /** Install this monitor as @p log's append observer. */
    void attach(TraceLog &log);

    /** Feed one event (called by the TraceLog observer hook). */
    void onEvent(const TraceEvent &event);

    bool ok() const { return violations_.empty(); }
    std::uint64_t violationCount() const { return violationCount_; }
    /** Retained violation records (capped at kMaxRetained). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Human-readable summary (all retained violations + timelines). */
    void report(std::ostream &os) const;

  private:
    static constexpr std::size_t kMaxRetained = 16;
    /** Timeline events retained per in-flight transaction. */
    static constexpr std::size_t kMaxTimelineEvents = 64;
    /** In-flight transactions tracked before the oldest is forgotten
     *  (bounds memory on runs that never finish txns). */
    static constexpr std::size_t kMaxTrackedTraces = 4096;

    struct TxnState
    {
        /** Recent events of this trace, capped (display only). */
        std::deque<TraceEvent> timeline;
        bool timelineTruncated = false;
        /** Largest version timestamp this txn observed on a read. */
        std::int64_t maxReadTs = 0;
    };

    TxnState &track(std::uint64_t traceId);
    void addViolation(std::string invariant, std::string message,
                      std::uint64_t traceId, const TraceEvent &event);
    static void printViolation(std::ostream &os, const Violation &v);

    Config config_;
    std::ostream *err_;

    /** In-flight transactions, insertion-ordered for pruning. */
    std::unordered_map<std::uint64_t, TxnState> txns_;
    std::deque<std::uint64_t> txnOrder_;

    /** invariant 1: per-key latest committed version timestamp. */
    std::unordered_map<Key, std::int64_t> lastCommitTs_;
    /** invariant 3: span ids whose replication child has finished. */
    std::unordered_set<std::uint64_t> replDoneParents_;
    /** invariant 4: per-node admitted-op concurrency. */
    std::unordered_map<NodeId, std::int64_t> queueDepth_;

    std::vector<Violation> violations_;
    std::uint64_t violationCount_ = 0;
};

} // namespace common

#endif // COMMON_INVARIANT_MONITOR_HH
