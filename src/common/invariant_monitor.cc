#include "common/invariant_monitor.hh"

#include <utility>

namespace common {

InvariantMonitor::InvariantMonitor() : InvariantMonitor(Config{}) {}

InvariantMonitor::InvariantMonitor(Config config, std::ostream *err)
    : config_(config), err_(err)
{
}

void
InvariantMonitor::attach(TraceLog &log)
{
    log.setObserver([this](const TraceEvent &e) { onEvent(e); });
}

InvariantMonitor::TxnState &
InvariantMonitor::track(std::uint64_t traceId)
{
    auto it = txns_.find(traceId);
    if (it != txns_.end())
        return it->second;
    if (txns_.size() >= kMaxTrackedTraces && !txnOrder_.empty()) {
        txns_.erase(txnOrder_.front());
        txnOrder_.pop_front();
    }
    txnOrder_.push_back(traceId);
    return txns_[traceId];
}

void
InvariantMonitor::addViolation(std::string invariant, std::string message,
                               std::uint64_t traceId,
                               const TraceEvent &event)
{
    ++violationCount_;
    Violation v;
    v.invariant = std::move(invariant);
    v.message = std::move(message);
    v.traceId = traceId;
    v.trueTime = event.trueTime;
    if (traceId != 0) {
        auto it = txns_.find(traceId);
        if (it != txns_.end())
            v.timeline.assign(it->second.timeline.begin(),
                              it->second.timeline.end());
    }
    if (v.timeline.empty() || v.timeline.back().seq != event.seq)
        v.timeline.push_back(event);
    if (config_.failFast && err_ != nullptr)
        printViolation(*err_, v);
    if (violations_.size() < kMaxRetained)
        violations_.push_back(std::move(v));
}

void
InvariantMonitor::onEvent(const TraceEvent &e)
{
    // Buffer the event on its transaction's timeline first, so a
    // violation detected below reports a history that includes it.
    if (e.traceId != 0) {
        TxnState &txn = track(e.traceId);
        if (txn.timeline.size() >= kMaxTimelineEvents) {
            txn.timeline.pop_front();
            txn.timelineTruncated = true;
        }
        txn.timeline.push_back(e);
    }

    // --- invariant 1: per-key commit-timestamp monotonicity ---------
    if (config_.checkCommitMonotonic && e.kind == TraceKind::Instant &&
        e.name == "milana.key.commit") {
        const Key key = static_cast<Key>(e.arg);
        const std::int64_t ts = e.arg2;
        auto [it, inserted] = lastCommitTs_.emplace(key, ts);
        if (!inserted) {
            // Tag "late" marks a CTP / recovery re-application: a
            // replica catching up on an outcome it missed. Those can
            // land after newer versions committed elsewhere and are
            // safe on the multi-version backend, so they fold into the
            // max without being allowed to regress it — and without
            // being flagged.
            if (ts < it->second) {
                if (e.tag != "late")
                    addViolation(
                        "commit-monotonic",
                        "key " + std::to_string(key) + " committed at ts " +
                            std::to_string(ts) + " after ts " +
                            std::to_string(it->second),
                        e.traceId, e);
            } else {
                it->second = ts;
            }
        }
    }

    // --- invariant 2: committed reads respect the snapshot ----------
    if (e.kind == TraceKind::Instant && e.name == "milana.txn.read" &&
        e.traceId != 0) {
        TxnState &txn = track(e.traceId);
        if (e.arg2 > txn.maxReadTs)
            txn.maxReadTs = e.arg2;
    }
    if (e.kind == TraceKind::SpanEnd && e.name == "milana.txn.commit") {
        if (config_.checkSnapshotReads && e.tag == "committed" &&
            e.traceId != 0) {
            auto it = txns_.find(e.traceId);
            // The commit end's arg carries the txn's begin timestamp.
            if (it != txns_.end() && e.arg != 0 &&
                it->second.maxReadTs > e.arg)
                addViolation(
                    "snapshot-read",
                    "txn committed but observed a version stamped " +
                        std::to_string(it->second.maxReadTs) +
                        " > its begin ts " + std::to_string(e.arg),
                    e.traceId, e);
        }
        // The transaction is over either way; stop tracking it.
        if (e.traceId != 0 && txns_.erase(e.traceId) != 0) {
            for (auto it = txnOrder_.begin(); it != txnOrder_.end(); ++it) {
                if (*it == e.traceId) {
                    txnOrder_.erase(it);
                    break;
                }
            }
        }
    }

    // --- invariant 3: replication finished before the durable ack ---
    if (config_.checkReplicationBeforeAck) {
        if (e.kind == TraceKind::SpanEnd &&
            (e.name == "milana.repl.txn_record" ||
             e.name == "semel.repl.write"))
            replDoneParents_.insert(e.parentSpan);
        const bool prepareAck = e.kind == TraceKind::SpanEnd &&
                                e.name == "milana.server.prepare" &&
                                e.tag == "commit" && e.arg > 0;
        const bool putAck = e.kind == TraceKind::SpanEnd &&
                            e.name == "semel.server.put" &&
                            e.tag == "ok" && e.arg > 0;
        if (prepareAck || putAck) {
            if (replDoneParents_.erase(e.span) == 0)
                addViolation("replication-before-ack",
                             e.name + " span " + std::to_string(e.span) +
                                 " acked before its replication span "
                                 "finished",
                             e.traceId, e);
        }
    }

    // --- invariant 4: SSD admitted-op concurrency bound -------------
    if (config_.maxQueueDepth > 0 && e.kind == TraceKind::Instant) {
        if (e.name == "flash.ssd.admit") {
            std::int64_t &depth = queueDepth_[e.node];
            if (++depth > config_.maxQueueDepth)
                addViolation("queue-depth",
                             "node " + std::to_string(e.node) +
                                 " admitted op #" + std::to_string(depth) +
                                 " (limit " +
                                 std::to_string(config_.maxQueueDepth) +
                                 ")",
                             e.traceId, e);
        } else if (e.name == "flash.ssd.release") {
            std::int64_t &depth = queueDepth_[e.node];
            if (depth > 0)
                --depth;
        }
    }

    // A client-side abort before the commit span also ends the txn.
    if (e.kind == TraceKind::Instant &&
        e.name == "milana.txn.client_abort" && e.traceId != 0 &&
        txns_.erase(e.traceId) != 0) {
        for (auto it = txnOrder_.begin(); it != txnOrder_.end(); ++it) {
            if (*it == e.traceId) {
                txnOrder_.erase(it);
                break;
            }
        }
    }
}

void
InvariantMonitor::printViolation(std::ostream &os, const Violation &v)
{
    os << "INVARIANT VIOLATION [" << v.invariant << "] at t="
       << v.trueTime << " ns";
    if (v.traceId != 0)
        os << " (txn trace " << v.traceId << ")";
    os << ": " << v.message << "\n";
    if (!v.timeline.empty()) {
        os << "  transaction timeline:\n";
        for (const TraceEvent &e : v.timeline) {
            os << "    t=" << e.trueTime << " node=" << e.node << " "
               << traceKindCode(e.kind) << " " << e.name;
            if (e.span != 0)
                os << " span=" << e.span;
            if (e.parentSpan != 0)
                os << " parent=" << e.parentSpan;
            if (!e.tag.empty())
                os << " tag=" << e.tag;
            if (e.arg != 0)
                os << " arg=" << e.arg;
            if (e.arg2 != 0)
                os << " arg2=" << e.arg2;
            os << "\n";
        }
    }
}

void
InvariantMonitor::report(std::ostream &os) const
{
    if (ok()) {
        os << "invariant monitor: OK (0 violations)\n";
        return;
    }
    os << "invariant monitor: " << violationCount_ << " violation(s)";
    if (violationCount_ > violations_.size())
        os << " (first " << violations_.size() << " retained)";
    os << "\n";
    for (const Violation &v : violations_)
        printViolation(os, v);
}

} // namespace common
