#include "milana/server.hh"

#include <algorithm>
#include <limits>

#include "common/chaos.hh"
#include "common/logging.hh"
#include "sim/future.hh"
#include "sim/sync.hh"

namespace milana {

using common::kMillisecond;

namespace {

/** Read-lease term a backup grants its primary. Leases run exactly
 *  when the server has backups: a lone replica has no successor whose
 *  reads it could contradict. */
constexpr common::Duration kLeaseDuration = 2 * common::kSecond;
/** How often the primary renews its lease. */
constexpr common::Duration kLeaseRenewPeriod = 500 * kMillisecond;
/** Age at which a prepared transaction counts as orphaned and the
 *  cooperative termination protocol resolves it (section 4.5)... */
constexpr common::Duration kCtpTimeout = 50 * kMillisecond;
/** ...checked by a scan this often. */
constexpr common::Duration kCtpScanPeriod = 20 * kMillisecond;

} // namespace

MilanaServer::MilanaServer(sim::Simulator &sim, net::Network &net,
                           NodeId id, common::ShardId shard,
                           ftl::KvBackend &backend,
                           clocksync::Clock &clock,
                           std::uint32_t expected_clients,
                           semel::Master &master,
                           semel::Directory &directory)
    : semel::Server(sim, net, id, shard, backend, expected_clients),
      clock_(clock),
      master_(master),
      directory_(directory)
{
}

void
MilanaServer::start()
{
    started_ = true;
    if (!backups_.empty())
        sim::spawn(leaseLoop());
    sim::spawn(ctpScanLoop());
}

sim::Task<void>
MilanaServer::loadKey(Key key, Value value, Version version)
{
    (void)co_await backend_.put(key, value, version);
    noteCommitted(key, version).flags |= semel::KeySlot::kReady;
}

sim::Task<void>
MilanaServer::ensureKeyState(Key key)
{
    const semel::KeySlot *slot = keys_.find(key);
    if (slot != nullptr && (slot->flags & semel::KeySlot::kReady) != 0)
        co_return;
    // Rebuild ts_latestCommitted from the version stamps in storage
    // (section 4.5); ts_latestRead is unrecoverable — the lease wait
    // already covered it. Look the slot up again after the read: it
    // may have moved or appeared while this frame was suspended.
    const ftl::GetResult latest = co_await backend_.getLatest(key);
    semel::KeySlot &ks = latest.found ? noteCommitted(key, latest.version)
                                      : keys_.getOrCreate(key);
    ks.flags |= semel::KeySlot::kReady;
}

void
MilanaServer::markPrepared(Key key, Version version, const TxnId &owner)
{
    keys_.getOrCreate(key).flags |= semel::KeySlot::kPrepared;
    PreparedSlot &mark = prepared_.getOrCreate(key);
    mark.version = version;
    mark.owner = owner;
}

void
MilanaServer::clearPrepared(semel::KeySlot &slot, const TxnId &owner)
{
    if ((slot.flags & semel::KeySlot::kPrepared) == 0 ||
        prepared_.find(slot.key)->owner != owner)
        return;
    slot.flags &= ~semel::KeySlot::kPrepared;
    prepared_.erase(slot.key);
}

bool
MilanaServer::preparedAtOrBefore(const semel::KeySlot &slot,
                                 Version at) const
{
    return (slot.flags & semel::KeySlot::kPrepared) != 0 &&
           prepared_.find(slot.key)->version <= at;
}

std::optional<Version>
MilanaServer::preparedVersion(Key key) const
{
    if (const PreparedSlot *mark = prepared_.find(key))
        return mark->version;
    return std::nullopt;
}

// ------------------------------------------------------------- reads

sim::Task<GetResponse>
MilanaServer::handleGet(GetRequest request)
{
    milanaGets_.inc();
    common::ScopedSpan span(trace_, "milana.server.get");
    co_await chargeCpu();
    GetResponse resp;

    // Lease discipline: serve a read at timestamp `at` only while
    // holding a lease covering it, so a future primary can bound our
    // ts_latestRead values.
    const Time deadline = sim_.now() + common::kSecond;
    while (recovering_ ||
           (!backups_.empty() && request.at.timestamp > leaseUntil_)) {
        if (sim_.now() > deadline || sim_.stopRequested()) {
            resp.unavailable = true;
            getUnavailable_.inc();
            span.setTag("unavailable");
            co_return resp;
        }
        if (!recovering_)
            (void)co_await renewLease();
        else
            co_await sim::sleepFor(sim_, kMillisecond);
    }

    co_await ensureKeyState(request.key);

    // Synchronous with the flag computation and the backend's chain
    // lookup: record the read and capture the prepared flag BEFORE the
    // storage access, so no prepare with stamp <= at can slip between
    // the snapshot and the flag (see section 4.3's argument).
    semel::KeySlot &ks = keys_.getOrCreate(request.key);
    ks.latestRead = std::max(ks.latestRead, request.at);
    const bool prepared_leq = preparedAtOrBefore(ks, request.at);

    const ftl::GetResult r =
        co_await backend_.get(request.key, request.at);
    resp.found = r.found;
    resp.version = r.version;
    resp.value = r.value;
    resp.preparedLeqAt = prepared_leq;
    co_return resp;
}

// -------------------------------------------------------- validation

semel::AbortReason
MilanaServer::validate(const PrepareRequest &request)
{
    using semel::AbortReason;
    // Algorithm 1, verbatim.
    for (const auto &read : request.readSet) {
        const semel::KeySlot &ks = keys_.getOrCreate(read.key);
        if ((ks.flags & semel::KeySlot::kPrepared) != 0) {
            abortReadPrepared_.inc();
            return AbortReason::ReadPrepared;
        }
        if (ks.latestCommitted != read.observed) {
            abortReadStale_.inc();
            return AbortReason::ReadStale;
        }
    }
    const Version new_version = request.commitVersion;
    for (const auto &write : request.writeSet) {
        const semel::KeySlot &ks = keys_.getOrCreate(write.key);
        if ((ks.flags & semel::KeySlot::kPrepared) != 0) {
            abortWritePrepared_.inc();
            return AbortReason::WritePrepared;
        }
        if (ks.latestRead >= new_version) {
            abortWriteReadConflict_.inc();
            return AbortReason::WriteReadConflict;
        }
        if (ks.latestCommitted >= new_version) {
            abortWriteStale_.inc();
            return AbortReason::WriteStale;
        }
    }
    return AbortReason::None;
}

semel::AbortReason
MilanaServer::classifyAbort(semel::AbortReason reason)
{
    // Only the checks that compare timestamps are re-labelled: a
    // prepared-key conflict is a real lock conflict whatever the
    // clocks are doing.
    if (chaos_ == nullptr || !chaos_->clockFaultActive())
        return reason;
    switch (reason) {
      case semel::AbortReason::ReadStale:
      case semel::AbortReason::WriteStale:
      case semel::AbortReason::WriteReadConflict:
        abortClockSuspect_.inc();
        return semel::AbortReason::ClockSuspect;
      default:
        return reason;
    }
}

sim::Task<PrepareResponse>
MilanaServer::handlePrepare(PrepareRequest request)
{
    prepares_.inc();
    common::ScopedSpan span(trace_, "milana.server.prepare");
    span.setArg(static_cast<std::int64_t>(request.writeSet.size()));
    co_await chargeCpu();
    PrepareResponse resp;

    if (recovering_) {
        resp.vote = Vote::Abort;
        resp.reason = semel::AbortReason::PrepareFailed;
        span.setTag("recovering");
        co_return resp;
    }

    for (const auto &read : request.readSet)
        co_await ensureKeyState(read.key);
    for (const auto &write : request.writeSet)
        co_await ensureKeyState(write.key);

    // A prepare below the truncation horizon could be a duplicate of a
    // transaction whose record is gone: vote it down. DESIGN.md argues
    // that no client sends one.
    if (request.commitVersion.timestamp < txns_.horizon()) {
        txnTableBelowHorizonPrepare_.inc();
        resp.vote = Vote::Abort;
        resp.reason = semel::AbortReason::PrepareFailed;
        span.setTag("below_horizon");
        co_return resp;
    }

    // Idempotent retransmissions. Nothing below suspends until the
    // prepare is in the table, so it is checked once, here.
    switch (txns_.statusOf(request.txn)) {
      case semel::TxnStatus::Prepared:
      case semel::TxnStatus::Committed:
        resp.vote = Vote::Commit;
        span.setTag("duplicate");
        co_return resp;
      case semel::TxnStatus::Aborted:
        resp.vote = Vote::Abort;
        span.setTag("duplicate");
        co_return resp;
      case semel::TxnStatus::Unknown:
        break;
    }

    if (request.writeSet.empty()) {
        // Remote validation of a read-only transaction (used when
        // client-local validation is disabled, Figure 8's "w/o LV"):
        // the snapshot at ts_begin is consistent iff each observed
        // version is still the youngest <= ts_begin and no prepared
        // write <= ts_begin exists. Nothing prepares, nothing
        // replicates — validate and vote.
        resp.vote = Vote::Commit;
        for (const auto &read : request.readSet) {
            const semel::KeySlot &ks = keys_.getOrCreate(read.key);
            if (preparedAtOrBefore(ks, request.beginVersion)) {
                resp.vote = Vote::Abort;
                resp.reason = semel::AbortReason::ReadPrepared;
                break;
            }
            const auto snapshot =
                backend_.versionAt(read.key, request.beginVersion);
            const Version expect = snapshot.has_value()
                                       ? *snapshot
                                       : ks.latestCommitted;
            if (expect != read.observed) {
                resp.vote = Vote::Abort;
                resp.reason =
                    classifyAbort(semel::AbortReason::ReadStale);
                break;
            }
        }
        if (resp.vote == Vote::Commit) {
            // The paper's remote validation costs the full prepare
            // path: the primary syncs with f backups before voting
            // (section 4.3 counts this as the second round trip that
            // local validation eliminates).
            co_await barrierBackups();
        }
        (resp.vote == Vote::Commit ? votesCommit_ : votesAbort_).inc();
        span.setTag(resp.vote == Vote::Commit
                        ? "commit"
                        : semel::abortReasonName(resp.reason));
        co_return resp;
    }

    const semel::AbortReason reason = classifyAbort(validate(request));
    if (reason != semel::AbortReason::None) {
        resp.vote = Vote::Abort;
        resp.reason = reason;
        votesAbort_.inc();
        span.setTag(semel::abortReasonName(reason));
        co_return resp;
    }
    resp.vote = Vote::Commit;

    const TxnSlot &record = *txns_.merge(
        {
            .txn = request.txn,
            .commitVersion = request.commitVersion,
            .writeSet = request.writeSet,
            .participants = request.participants,
        },
        sim_.now());

    // Mark the write set prepared — synchronously with validation, so
    // no concurrent prepare can interleave.
    for (const auto &write : request.writeSet)
        markPrepared(write.key, request.commitVersion, request.txn);

    // Persist the prepare on a majority before voting: replicate the
    // record (with the write set and shard list) and wait for f acks.
    co_await replicateTxnRecord(record, true);

    votesCommit_.inc();
    span.setTag("commit");
    co_return resp;
}

// ---------------------------------------------------------- decision

sim::Task<void>
MilanaServer::applyCommit(const TxnSlot &record, bool late)
{
    // Apply buffered writes in parallel; each key's prepared mark is
    // cleared only after its write is durable, so read-only snapshots
    // taken in the window still see the prepared flag (section 4.3).
    // The quorum lives in this frame: every writer arrives before it
    // wakes us, and arriving is a writer's last act.
    sim::Quorum done(sim_, record.writes);
    for (const auto &write : record.writeSet()) {
        sim::spawn([](MilanaServer *self, Key key, Value value,
                      Version version, TxnId txn, bool late,
                      sim::Quorum *q) -> sim::Task<void> {
            (void)co_await self->backend_.put(key, value, version);
            self->clearPrepared(self->noteCommitted(key, version), txn);
            // Per-key commit record: feeds the invariant monitor's
            // commit-timestamp monotonicity check. Tag "late" when the
            // decision was a CTP / recovery re-application, which can
            // legally land after newer versions committed elsewhere.
            self->trace_.instant("milana.key.commit",
                                 late ? "late" : std::string_view{},
                                 static_cast<std::int64_t>(key),
                                 version.timestamp);
            q->arrive();
        }(this, write.key, write.value, record.commitVersion, record.txn(),
          late, &done));
    }
    if (record.writes != 0)
        co_await done.wait();
    committed_.inc();
}

void
MilanaServer::applyAbort(const TxnSlot &record)
{
    const TxnId txn = record.txn();
    for (const auto &write : record.writeSet()) {
        if (semel::KeySlot *ks = keys_.find(write.key))
            clearPrepared(*ks, txn);
    }
    aborted_.inc();
}

sim::Task<DecisionResponse>
MilanaServer::handleDecision(DecisionRequest request)
{
    decisions_.inc();
    common::ScopedSpan span(trace_, "milana.server.decision",
                            request.decision == TxnDecision::Commit
                                ? "commit"
                                : "abort");
    DecisionResponse resp;
    resp.ok = true;

    TxnSlot *entry = txns_.findLive(request.txn);
    if (entry == nullptr || entry->status != semel::TxnStatus::Prepared)
        co_return resp; // duplicate or already resolved: idempotent

    // Claim the entry synchronously BEFORE the apply suspends: the
    // client's decision and the CTP backup coordinator can race here,
    // and the loser must take the idempotent path above rather than
    // resolve the entry out from under the winner.
    const semel::TxnStatus outcome = request.decision == TxnDecision::Commit
                                         ? semel::TxnStatus::Committed
                                         : semel::TxnStatus::Aborted;
    entry->status = outcome;
    if (outcome == semel::TxnStatus::Committed)
        co_await applyCommit(*entry, request.late);
    else
        applyAbort(*entry);
    co_await replicateTxnRecord(txns_.resolve(request.txn, outcome), true);
    co_return resp;
}

sim::Task<TxnStatusResponse>
MilanaServer::handleTxnStatus(TxnStatusRequest request)
{
    // Below the horizon the answer may come from a truncated record;
    // DESIGN.md argues that no CTP asks there.
    if (request.commitVersion.timestamp < txns_.horizon())
        txnTableBelowHorizonStatus_.inc();
    TxnStatusResponse resp;
    resp.status = txns_.statusOf(request.txn);
    co_return resp;
}

// --------------------------------------------------------- backups

sim::Task<void>
MilanaServer::replicateTxnRecord(const TxnSlot &record, bool wait_quorum)
{
    // The transaction table is this replica's own durable copy.
    if (backups_.empty())
        co_return;

    const char *kind = record.status == semel::TxnStatus::Prepared
                           ? "prepared"
                           : record.status == semel::TxnStatus::Committed
                                 ? "committed"
                                 : "aborted";
    common::ScopedSpan span(trace_, "milana.repl.txn_record", kind);
    const Time started = sim_.now();

    // The quorum answers the caller. An outcome may be truncated only
    // once every backup has acked it (DESIGN.md section 7).
    const auto all_backups =
        record.status == semel::TxnStatus::Prepared
            ? 0
            : static_cast<std::uint32_t>(backups_.size());
    const ReplicateTxnRecord wire = record.toRecord();
    sim::SharedQuorum quorum(sim_, semel::backupQuorum(backups_.size()));
    for (semel::Server *backup : backups_) {
        auto *mb = dynamic_cast<MilanaServer *>(backup);
        if (mb == nullptr)
            PANIC("milana primary wired to a non-milana backup");
        sim::spawn([](MilanaServer *self, MilanaServer *backup,
                      ReplicateTxnRecord rec, std::uint32_t all_backups,
                      sim::SharedQuorum q) -> sim::Task<void> {
            const TxnId txn = rec.txn;
            auto ok = co_await self->net_.callTyped<bool>(
                self->id_, backup->nodeId(),
                backup->handleReplicateTxnRecord(std::move(rec),
                                                 self->txns_.horizon()));
            if (ok.has_value() && *ok) {
                q->arrive();
                if (q->arrived() == all_backups)
                    self->txns_.noteReplicated(txn);
            }
        }(this, mb, wire, all_backups, quorum));
    }
    if (wait_quorum) {
        co_await quorum->wait();
        milanaReplWait_.record(sim_.now() - started);
    }
}

sim::Task<bool>
MilanaServer::handleBarrier()
{
    co_return true;
}

sim::Task<void>
MilanaServer::barrierBackups()
{
    if (backups_.empty())
        co_return;
    sim::SharedQuorum quorum(sim_, semel::backupQuorum(backups_.size()));
    for (semel::Server *backup : backups_) {
        auto *mb = dynamic_cast<MilanaServer *>(backup);
        sim::spawn([](MilanaServer *self, MilanaServer *backup,
                      sim::SharedQuorum q) -> sim::Task<void> {
            auto ok = co_await self->net_.callTyped<bool>(
                self->id_, backup->nodeId(), backup->handleBarrier());
            if (ok.has_value())
                q->arrive();
        }(this, mb, quorum));
    }
    co_await quorum->wait();
}

sim::Task<bool>
MilanaServer::handleReplicateTxnRecord(ReplicateTxnRecord record,
                                       Time horizon)
{
    replicaRecords_.inc();
    // The primary's horizon rides on every record; the next CTP scan
    // truncates at it.
    primaryHorizon_ = std::max(primaryHorizon_, horizon);
    // Fold the record into the table (the persistent-memory log
    // write); records may arrive in any order (Figure 5), and one
    // below the horizon is a late duplicate the table drops.
    if (record.commitVersion.timestamp < txns_.horizon())
        txnTableBelowHorizonMerge_.inc();
    const TxnSlot *stored = txns_.merge(record, sim_.now());
    if (stored != nullptr && stored->status == semel::TxnStatus::Committed) {
        // Apply the committed writes to local storage, asynchronously:
        // the ack only promises the log entry.
        for (const auto &write : stored->writeSet()) {
            sim::spawn([](MilanaServer *self, Key key, Value value,
                          Version version) -> sim::Task<void> {
                (void)co_await self->backend_.put(key, value, version);
                self->noteCommitted(key, version);
            }(this, write.key, write.value, stored->commitVersion));
        }
    }
    co_return true;
}

// ------------------------------------------------------------ leases

sim::Task<Time>
MilanaServer::handleLeaseGrant(Time until)
{
    maxLeaseGranted_ = std::max(maxLeaseGranted_, until);
    co_return maxLeaseGranted_;
}

sim::Task<bool>
MilanaServer::renewLease()
{
    const Time until = clock_.localNow() + kLeaseDuration;
    sim::SharedQuorum quorum(sim_, semel::backupQuorum(backups_.size()));
    for (semel::Server *backup : backups_) {
        auto *mb = dynamic_cast<MilanaServer *>(backup);
        sim::spawn([](MilanaServer *self, MilanaServer *backup,
                      Time until,
                      sim::SharedQuorum q) -> sim::Task<void> {
            auto ok = co_await self->net_.callTyped<Time>(
                self->id_, backup->nodeId(),
                backup->handleLeaseGrant(until));
            if (ok.has_value())
                q->arrive();
        }(this, mb, until, quorum));
    }
    // Bounded wait: with a majority of backups down, renewal fails.
    sim::Promise<bool> done(sim_);
    auto fut = done.future();
    sim::spawn([](sim::SharedQuorum q,
                  sim::Promise<bool> p) -> sim::Task<void> {
        co_await q->wait();
        p.set(true);
    }(quorum, done));
    auto granted = co_await fut.withTimeout(20 * kMillisecond);
    if (granted.has_value()) {
        leaseUntil_ = std::max(leaseUntil_, until);
        leaseRenewals_.inc();
        co_return true;
    }
    co_return false;
}

sim::Task<void>
MilanaServer::leaseLoop()
{
    while (!sim_.stopRequested()) {
        if (!recovering_)
            (void)co_await renewLease();
        co_await sim::sleepFor(sim_, kLeaseRenewPeriod);
    }
}

// --------------------------------------------------------------- CTP

sim::Task<void>
MilanaServer::resolveOrphan(TxnId txn)
{
    const TxnSlot *entry = txns_.findLive(txn);
    if (entry == nullptr || entry->status != semel::TxnStatus::Prepared)
        co_return;
    ctpInvocations_.inc();
    // Copy: the entry is not read across the suspensions below.
    const auto shards = entry->participants();
    const decltype(ReplicateTxnRecord::participants) participants(
        shards.begin(), shards.end());
    const TxnStatusRequest query{txn, entry->commitVersion};

    bool saw_commit = false;
    bool saw_abort_or_unknown = false;
    bool undeterminable = false;

    for (const common::ShardId participant : participants) {
        if (participant == shard_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(
            directory_.at(master_.primaryOf(participant)));
        if (peer == nullptr)
            PANIC("participant shard " << participant << " has no server");
        auto resp = co_await net_.callTyped<TxnStatusResponse>(
            id_, peer->nodeId(), peer->handleTxnStatus(query));
        if (!resp.has_value()) {
            undeterminable = true; // peer unreachable; stay blocked
            continue;
        }
        switch (resp->status) {
          case semel::TxnStatus::Committed:
            saw_commit = true;
            break;
          case semel::TxnStatus::Aborted:
          case semel::TxnStatus::Unknown:
            // Rule 2/3: a participant that never prepared (or already
            // aborted) means the coordinator cannot have committed.
            saw_abort_or_unknown = true;
            break;
          case semel::TxnStatus::Prepared:
            break;
        }
    }

    TxnDecision decision = TxnDecision::Unknown;
    if (saw_commit) {
        decision = TxnDecision::Commit; // rule 1
    } else if (saw_abort_or_unknown) {
        decision = TxnDecision::Abort; // rules 2 and 3
    } else if (!undeterminable) {
        decision = TxnDecision::Commit; // rule 4: all prepared
    } else {
        co_return; // cannot determine yet; retry at the next scan
    }

    (decision == TxnDecision::Commit ? ctpCommits_ : ctpAborts_).inc();
    DecisionRequest req;
    req.txn = txn;
    req.decision = decision;
    req.late = true;
    (void)co_await handleDecision(req);

    // As backup coordinator, propagate the outcome to the other
    // participants so their prepared marks clear too.
    for (const common::ShardId participant : participants) {
        if (participant == shard_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(
            directory_.at(master_.primaryOf(participant)));
        if (peer == nullptr)
            continue;
        (void)co_await net_.callTyped<DecisionResponse>(
            id_, peer->nodeId(), peer->handleDecision(req));
    }
}

sim::Task<void>
MilanaServer::ctpScanLoop()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, kCtpScanPeriod);
        // Never while recovering: recoverAsPrimary holds references
        // into the table across suspensions.
        if (recovering_)
            continue;
        // A backup truncates at its primary's horizon and leaves its
        // live records to the primary: one may lie below other shards'
        // horizons (its outcome was lost on the way), so it must not
        // run the CTP.
        if (master_.primaryOf(shard_) != id_) {
            pruned_ += txns_.truncate(primaryHorizon_, false);
            continue;
        }
        // H = min(H_txn, H_repl): below H_txn every client has had all
        // its decisions delivered; below H_repl there is no live record
        // and every backup holds every outcome (DESIGN.md section 7).
        pruned_ += txns_.truncate(decidedBelow(), !backups_.empty());
        const Time deadline = sim_.now() - kCtpTimeout;
        for (const TxnId &txn : txns_.preparedBefore(deadline))
            co_await resolveOrphan(txn);
    }
}

// ---------------------------------------------------------- recovery

sim::Task<MilanaServer::RecoveryPull>
MilanaServer::handleRecoveryPull()
{
    RecoveryPull pull;
    for (const TxnId &txn : txns_.decidedIds())
        pull.records.push_back(txns_.find(txn)->toRecord());
    for (const TxnId &txn : txns_.liveIds())
        pull.records.push_back(txns_.find(txn)->toRecord());
    pull.maxLeaseGranted = maxLeaseGranted_;
    co_return pull;
}

sim::Task<void>
MilanaServer::recoverAsPrimary()
{
    recovering_ = true;
    recoveries_.inc();

    // Algorithm 2: merge every reachable replica's transaction table
    // into our own. Outcomes dominate prepares; any single record of
    // an outcome is authoritative (it could only exist if the
    // coordinator decided).
    Time max_lease = maxLeaseGranted_;
    for (const NodeId node : master_.replicasOf(shard_)) {
        if (node == id_)
            continue;
        auto *peer = dynamic_cast<MilanaServer *>(directory_.at(node));
        if (peer == nullptr)
            continue;
        auto pull = co_await net_.callTyped<RecoveryPull>(
            id_, node, peer->handleRecoveryPull());
        if (!pull.has_value())
            continue; // crashed replica
        for (const ReplicateTxnRecord &record : pull->records)
            (void)txns_.merge(record, sim_.now());
        max_lease = std::max(max_lease, pull->maxLeaseGranted);
    }

    // Forget all per-key state: ensureKeyState rebuilds each key's
    // latestCommitted from storage on first touch.
    keys_.clear();
    prepared_.clear();

    // Re-apply committed writes: backend puts are idempotent per
    // version. Truncated transactions need none: every replica holds
    // and has applied their outcomes. The walk is in TxnId order and,
    // like a walk of an ordered map, also visits a transaction a late
    // decision resolves during a put if it sorts after the current
    // one. No record is truncated while recovering_ is set and a
    // committed one keeps its block, so the write set survives the
    // puts' suspensions.
    std::vector<TxnId> decided = txns_.decidedIds();
    for (std::size_t i = 0; i < decided.size(); ++i) {
        const TxnId txn = decided[i];
        const std::size_t before = txns_.decidedCount();
        const TxnSlot &record = *txns_.find(txn);
        if (record.status != semel::TxnStatus::Committed)
            continue;
        const Version version = record.commitVersion;
        const std::span<const semel::WriteSetEntry> writes =
            record.writeSet();
        for (const auto &write : writes) {
            (void)co_await backend_.put(write.key, write.value, version);
            noteCommitted(write.key, version);
        }
        if (txns_.decidedCount() != before) {
            decided = txns_.decidedIds();
            i = static_cast<std::size_t>(
                    std::upper_bound(decided.begin(), decided.end(), txn) -
                    decided.begin()) -
                1;
        }
    }

    // Every prepared transaction is in doubt, whichever replica logged
    // it.
    for (const TxnId &txn :
         txns_.preparedBefore(std::numeric_limits<Time>::max())) {
        const TxnSlot *record = txns_.findLive(txn);
        if (record == nullptr ||
            record->status != semel::TxnStatus::Prepared)
            continue; // decided by a peer's CTP meanwhile
        if (record->shards <= 1) {
            // Single-shard prepared == committed (Algorithm 2).
            (void)co_await handleDecision(
                DecisionRequest{txn, TxnDecision::Commit, true});
        } else {
            // Multi-shard: the CTP scanner will resolve it against the
            // other participants once service resumes. Re-instate the
            // prepared marks so conflicting transactions abort until
            // then.
            for (const auto &write : record->writeSet())
                markPrepared(write.key, record->commitVersion, txn);
        }
    }

    // Bring the backups level: one record per transaction. Nothing
    // suspends without the quorum wait, so the tables stay put.
    for (const TxnId &txn : txns_.decidedIds())
        co_await replicateTxnRecord(*txns_.find(txn), false);
    for (const TxnId &txn : txns_.liveIds())
        co_await replicateTxnRecord(*txns_.find(txn), false);

    // Wait out the old primary's lease so no read it served can be
    // contradicted (its ts_latestRead values are lost with it).
    if (!backups_.empty()) {
        while (clock_.localNow() <= max_lease + 10 * kMillisecond)
            co_await sim::sleepFor(sim_, kMillisecond);
    }

    recovering_ = false;
    if (!started_)
        start();
}

} // namespace milana
