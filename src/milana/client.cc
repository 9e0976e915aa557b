#include "milana/client.hh"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/chaos.hh"
#include "common/logging.hh"
#include "sim/future.hh"
#include "sim/sync.hh"

namespace milana {

namespace {

/** Resends of a prepare whose RPC timed out before the participant
 *  counts as failed. */
constexpr std::uint32_t kPrepareRetries = 2;

/** "txn.abort.<reason>", built once per reason; handles keep views. */
const std::string &
abortCounterName(std::size_t reason)
{
    static const auto names = [] {
        std::array<std::string, MilanaClient::kAbortReasons> out;
        for (std::size_t r = 0; r < out.size(); ++r)
            out[r] = std::string("txn.abort.") +
                     semel::abortReasonName(
                         static_cast<semel::AbortReason>(r));
        return out;
    }();
    return names[reason];
}

template <std::size_t... R>
std::array<common::CounterHandle, sizeof...(R)>
abortCounters(common::StatSet &stats, std::index_sequence<R...>)
{
    return {{common::CounterHandle(stats, abortCounterName(R))...}};
}

} // namespace

MilanaClient::MilanaClient(sim::Simulator &sim, net::Network &net,
                           NodeId node, ClientId client_id,
                           clocksync::Clock &clock,
                           const semel::Master &master,
                           const semel::Directory &directory,
                           const TxnConfig &txn_config)
    : semel::Client(sim, net, node, client_id, clock, master, directory),
      tcfg_(txn_config),
      abortCounters_(abortCounters(
          stats_, std::make_index_sequence<kAbortReasons>{}))
{
}

MilanaServer *
MilanaClient::milanaPrimaryFor(common::ShardId shard) const
{
    auto *server = dynamic_cast<MilanaServer *>(
        directory_.at(master_.primaryOf(shard)));
    if (server == nullptr)
        PANIC("shard " << shard << " primary is not a MILANA server");
    return server;
}

Transaction
MilanaClient::beginTransaction(TxnHint hint)
{
    Transaction txn;
    txn.id_ = TxnId{clientId_, nextSerial_++};
    txn.begin_ = Version{clock_.localNow(), clientId_};
    txn.active_ = true;
    txn.hint_ = hint;
    txn.traceId_ = trace_.newTraceId();
    begun_.inc();
    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    trace_.instant("milana.txn.begin",
                   hint == TxnHint::ReadWrite ? "rw_hint" : "default",
                   /*arg=*/0, /*arg2=*/txn.begin_.timestamp);
    return txn;
}

MilanaServer *
MilanaClient::anyReplicaFor(Key key, common::Rng &rng) const
{
    const common::ShardId shard = master_.shardMap().shardOf(key);
    const auto &replicas = master_.replicasOf(shard);
    const auto pick = replicas[rng.nextBounded(replicas.size())];
    auto *server = dynamic_cast<MilanaServer *>(directory_.at(pick));
    if (server == nullptr)
        PANIC("replica " << pick << " is not a MILANA server");
    return server;
}

sim::Task<TxnRead>
MilanaClient::get(Transaction &txn, Key key)
{
    TxnRead result;
    if (!txn.active_)
        PANIC("get on inactive transaction");
    // Reads run under the transaction's trace so server-side spans
    // chain back to it.
    common::TraceContextScope ctx(
        common::TraceContext{txn.traceId_, 0});

    // Reads of our own buffered writes come from the write set.
    if (auto wit = txn.writeSet_.find(key); wit != txn.writeSet_.end()) {
        result.ok = true;
        result.found = true;
        result.value = wit->second;
        co_return result;
    }
    // Repeat reads come from the read cache.
    if (auto rit = txn.readSet_.find(key); rit != txn.readSet_.end()) {
        result.ok = true;
        result.found = rit->second.found;
        result.value = rit->second.value;
        co_return result;
    }

    const bool hinted_rw = txn.hint_ == TxnHint::ReadWrite;

    // Section 4.3 "aggressive caching": a hinted read-write
    // transaction may serve reads from the inter-transaction cache —
    // it will validate remotely, so stale entries surface as aborts.
    if (hinted_rw && tcfg_.interTxnCacheCapacity > 0) {
        if (auto cit = interTxnCache_.find(key);
            cit != interTxnCache_.end()) {
            cacheHits_.inc();
            trace_.instant("milana.txn.read", "cache",
                           static_cast<std::int64_t>(key),
                           cit->second.observed.timestamp);
            txn.readSet_[key] = cit->second;
            result.ok = true;
            result.found = cit->second.found;
            result.value = cit->second.value;
            co_return result;
        }
    }

    std::optional<GetResponse> resp;
    if (hinted_rw && tcfg_.readFromAnyReplica) {
        // Section 4.6 relaxation: read from any replica; the primary
        // re-validates the observed version at prepare time.
        MilanaServer *replica = anyReplicaFor(key, replicaRng_);
        replicaReads_.inc();
        GetRequest req{key, txn.begin_};
        resp = co_await net_.callTyped<GetResponse>(
            node_, replica->nodeId(), replica->handleGet(req));
    } else {
        resp = co_await getAt(key, txn.begin_);
    }
    if (!resp.has_value() || resp->unavailable) {
        readFailures_.inc();
        if (chaos_ != nullptr && chaos_->anyActive()) {
            txn.abortReason_ = semel::AbortReason::Timeout;
            trace_.instant("milana.txn.fault_active",
                           chaos_->activeFaultName(),
                           static_cast<std::int64_t>(key));
        }
        co_return result; // ok = false
    }

    Transaction::CachedRead cached;
    cached.found = resp->found;
    cached.value = resp->value;
    cached.observed = resp->found ? resp->version : Version::zero();
    // Snapshot consistency bookkeeping (section 4.3): a prepared write
    // at or below ts_begin, or a returned version above ts_begin (only
    // possible on single-version storage), breaks the snapshot.
    if (resp->preparedLeqAt ||
        (resp->found && resp->version > txn.begin_))
        txn.snapshotViolated_ = true;
    trace_.instant("milana.txn.read", resp->found ? "hit" : "miss",
                   static_cast<std::int64_t>(key),
                   cached.observed.timestamp);
    txn.readSet_[key] = cached;
    if (tcfg_.interTxnCacheCapacity > 0) {
        if (interTxnCache_.size() >= tcfg_.interTxnCacheCapacity)
            interTxnCache_.erase(interTxnCache_.begin());
        interTxnCache_[key] = cached;
    }

    result.ok = true;
    result.found = cached.found;
    result.value = cached.value;
    co_return result;
}

void
MilanaClient::put(Transaction &txn, Key key, Value value)
{
    if (!txn.active_)
        PANIC("put on inactive transaction");
    txn.writeSet_[key] = std::move(value);
}

void
MilanaClient::abortTransaction(Transaction &txn)
{
    txn.active_ = false;
    txn.readSet_.clear();
    txn.writeSet_.clear();
    clientAborts_.inc();
    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    trace_.instant("milana.txn.client_abort");
    noteAcked(clock_.localNow());
}

sim::Task<CommitResult>
MilanaClient::commitReadOnlyLocal(Transaction &txn)
{
    // Local validation (section 4.3): zero messages. The transaction
    // commits iff every value in its read set came from a consistent
    // snapshot at ts_begin.
    localValidations_.inc();
    if (txn.snapshotViolated_) {
        localValidationFail_.inc();
        txn.abortReason_ = semel::AbortReason::SnapshotViolated;
        co_return CommitResult::Aborted;
    }
    co_return CommitResult::Committed;
}

sim::Task<CommitResult>
MilanaClient::twoPhaseCommit(Transaction &txn, bool read_only)
{
    const Version commit_version{clock_.localNow(), clientId_};
    txn.commitVersion_ = commit_version;

    // Partition read and write sets by participant shard, resolving
    // each key's shard once. participants stays ascending and
    // requests[i] is participants[i]'s prepare; they go out in order.
    constexpr std::size_t kInlineShards =
        semel::PrepareRequest::kInlineShards;
    common::SmallVector<common::ShardId, kInlineShards> participants;
    common::SmallVector<semel::PrepareRequest, kInlineShards> requests;
    auto requestFor = [&](Key key) -> semel::PrepareRequest & {
        const common::ShardId shard = master_.shardMap().shardOf(key);
        auto it = std::lower_bound(participants.begin(),
                                   participants.end(), shard);
        const auto at = static_cast<std::size_t>(it - participants.begin());
        if (it == participants.end() || *it != shard) {
            participants.insert(it, common::ShardId{shard});
            requests.insert(requests.begin() + at, semel::PrepareRequest{});
        }
        return requests[at];
    };
    for (const auto &[key, cached] : txn.readSet_)
        requestFor(key).readSet.push_back(ReadSetEntry{key, cached.observed});
    for (const auto &[key, value] : txn.writeSet_)
        requestFor(key).writeSet.push_back(semel::WriteSetEntry{key, value});
    // Held below doneBelow() until the last decision returns; a
    // read-only transaction has no decision phase.
    inFlight_.push_back(InFlight{txn.id_.serial, commit_version.timestamp,
                                 read_only ? 0 : participants.size()});

    // Lives in this frame: every voter arrives before the quorum wakes
    // us, and a voter's last act is its arrive().
    struct VoteState
    {
        explicit VoteState(sim::Simulator &s, std::uint32_t n)
            : all(s, n)
        {
        }
        sim::Quorum all;
        bool anyAbort = false;
        bool anyFailure = false;
        /** First abort reason reported by a participant. */
        semel::AbortReason reason = semel::AbortReason::None;
    };
    VoteState votes(sim_, static_cast<std::uint32_t>(participants.size()));

    for (std::size_t i = 0; i < requests.size(); ++i) {
        semel::PrepareRequest &req = requests[i];
        req.txn = txn.id_;
        req.commitVersion = commit_version;
        req.beginVersion = txn.begin_;
        req.participants = participants;
        MilanaServer *primary = milanaPrimaryFor(participants[i]);

        sim::spawn([](MilanaClient *self, MilanaServer *primary,
                      semel::PrepareRequest request,
                      VoteState *votes) -> sim::Task<void> {
            std::optional<semel::PrepareResponse> resp;
            for (std::uint32_t attempt = 0;
                 attempt <= kPrepareRetries && !resp; ++attempt) {
                resp = co_await self->net_.callTyped<semel::PrepareResponse>(
                    self->nodeId(), primary->nodeId(),
                    primary->handlePrepare(request));
            }
            if (!resp.has_value()) {
                votes->anyFailure = true;
            } else if (resp->vote == Vote::Abort) {
                votes->anyAbort = true;
                if (votes->reason == semel::AbortReason::None)
                    votes->reason = resp->reason;
            }
            votes->all.arrive();
        }(this, primary, std::move(req), &votes));
    }

    co_await votes.all.wait();

    CommitResult result;
    TxnDecision decision;
    if (votes.anyFailure) {
        result = CommitResult::Failed;
        decision = TxnDecision::Abort;
        // Under an active fault the lost RPC is (almost certainly) the
        // fault's doing: report Timeout so retry policies and metrics
        // can tell infrastructure chaos from a dead shard.
        txn.abortReason_ = (chaos_ != nullptr && chaos_->anyActive())
                               ? semel::AbortReason::Timeout
                               : semel::AbortReason::PrepareFailed;
    } else if (votes.anyAbort) {
        result = CommitResult::Aborted;
        decision = TxnDecision::Abort;
        txn.abortReason_ = votes.reason != semel::AbortReason::None
                               ? votes.reason
                               : semel::AbortReason::PrepareFailed;
    } else {
        result = CommitResult::Committed;
        decision = TxnDecision::Commit;
    }

    // Read-only transactions prepared nothing: no decision phase.
    if (!read_only) {
        // Report to the application now; notify participants
        // asynchronously (section 4.2).
        for (const auto &shard : participants) {
            MilanaServer *primary = milanaPrimaryFor(shard);
            sim::spawn([](MilanaClient *self, MilanaServer *primary,
                          semel::DecisionRequest request)
                           -> sim::Task<void> {
                const auto resp = co_await
                    self->net_.callTyped<semel::DecisionResponse>(
                        self->nodeId(), primary->nodeId(),
                        primary->handleDecision(request));
                self->decisionReturned(request.txn.serial,
                                       resp.has_value());
            }(this, primary,
              semel::DecisionRequest{txn.id_, decision}));
        }
    }
    if (read_only || participants.empty())
        decisionReturned(txn.id_.serial, true); // no decision to wait for
    co_return result;
}

void
MilanaClient::decisionReturned(std::uint64_t serial, bool delivered)
{
    auto it = std::find_if(inFlight_.begin(), inFlight_.end(),
                           [serial](const InFlight &f) {
                               return f.serial == serial;
                           });
    if (it == inFlight_.end())
        PANIC("decision for a transaction that is not in flight");
    if (!delivered)
        lostDecisionBelow_ = std::min(lostDecisionBelow_, it->commit);
    if (it->pending > 0 && --it->pending > 0)
        return;
    *it = inFlight_.back();
    inFlight_.pop_back();
}

Time
MilanaClient::doneBelow() const
{
    Time below = std::min(lastAcked(), lostDecisionBelow_);
    for (const InFlight &f : inFlight_)
        below = std::min(below, f.commit);
    return below;
}

sim::Task<CommitResult>
MilanaClient::decideCommit(Transaction &txn)
{
    if (txn.readOnly() && tcfg_.localValidation)
        co_return co_await commitReadOnlyLocal(txn);
    if (txn.readOnly()) {
        // Remote validation of the read-only snapshot (w/o LV). The
        // client-side inconsistency evidence is decisive either way.
        if (txn.snapshotViolated_) {
            txn.abortReason_ = semel::AbortReason::SnapshotViolated;
            co_return CommitResult::Aborted;
        }
        co_return co_await twoPhaseCommit(txn, true);
    }
    co_return co_await twoPhaseCommit(txn, false);
}

sim::Task<CommitResult>
MilanaClient::commitTransaction(Transaction &txn)
{
    if (!txn.active_)
        PANIC("commit on inactive transaction");
    txn.active_ = false;

    common::TraceContextScope ctx(common::TraceContext{txn.traceId_, 0});
    common::ScopedSpan span(trace_, "milana.txn.commit",
                            txn.readOnly() ? "ro" : "rw");
    // The commit end's arg carries ts_begin so offline tools and the
    // invariant monitor can check committed reads against the snapshot.
    span.setArg(txn.begin_.timestamp);

    const CommitResult result = co_await decideCommit(txn);

    switch (result) {
      case CommitResult::Committed:
        committed_.inc();
        span.setTag("committed");
        span.setArg2(txn.commitVersion_.timestamp != 0
                         ? txn.commitVersion_.timestamp
                         : txn.begin_.timestamp);
        if (tcfg_.interTxnCacheCapacity > 0) {
            // Committed writes refresh the cache at the new version.
            for (const auto &[key, value] : txn.writeSet_) {
                Transaction::CachedRead fresh;
                fresh.found = true;
                fresh.value = value;
                fresh.observed = txn.commitVersion_;
                interTxnCache_[key] = fresh;
            }
        }
        break;
      case CommitResult::Aborted:
        aborted_.inc();
        abortCounters_[static_cast<std::size_t>(txn.abortReason_)].inc();
        span.setTag(semel::abortReasonName(txn.abortReason_));
        // Cached reads may have caused the conflict: drop them so the
        // retry reads fresh data.
        if (tcfg_.interTxnCacheCapacity > 0)
            for (const auto &[key, cached] : txn.readSet_)
                interTxnCache_.erase(key);
        break;
      case CommitResult::Failed:
        failed_.inc();
        span.setTag("failed");
        break;
    }
    // Chaos attribution: a transaction that died while a fault was
    // active carries the fault's name in its trace, so
    // trace-report --txn=<id> answers "why did this txn die?".
    if (result != CommitResult::Committed && chaos_ != nullptr &&
        chaos_->anyActive()) {
        faultActiveAborts_.inc();
        trace_.instant("milana.txn.fault_active",
                       chaos_->activeFaultName());
    }
    // Watermark input: the timestamp of the latest *decided*
    // transaction (section 4.4).
    noteAcked(clock_.localNow());
    co_return result;
}

} // namespace milana
