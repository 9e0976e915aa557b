/**
 * @file
 * MILANA transaction server (paper section 4): a SEMEL primary
 * extended with the transaction API.
 *
 * Responsibilities at the primary:
 *  - serve snapshot gets at the transaction's begin timestamp,
 *    recording ts_latestRead and piggy-backing the prepared flag that
 *    enables client-local validation of read-only transactions
 *    (section 4.3);
 *  - validate prepares with Algorithm 1 (OCC), mark prepared keys,
 *    replicate the prepare record to f backups, and vote;
 *  - on the commit decision, apply the buffered writes, advance
 *    ts_latestCommitted, clear the prepared marks, and replicate the
 *    outcome — updates and prepare records may reach backups in any
 *    order (Figure 5);
 *  - act as backup coordinator for orphaned transactions via the
 *    cooperative termination protocol (section 4.5);
 *  - maintain read leases so ts_latestRead (which is never persisted)
 *    cannot be violated across a failover.
 *
 * At a backup the server folds replicated transaction records into
 * its transaction table and applies committed write sets; a promoted
 * backup merges the tables of the reachable replicas into its own
 * (Algorithm 2) and waits out the old primary's lease before serving.
 * Every replica truncates its table below the horizon its shard's
 * primary computes (DESIGN.md section 7).
 */

#ifndef MILANA_SERVER_HH
#define MILANA_SERVER_HH

#include <optional>
#include <vector>

#include "clocksync/clock.hh"
#include "common/key_table.hh"
#include "milana/txn_table.hh"
#include "semel/client.hh"
#include "semel/server.hh"

namespace common {
class ChaosEngine;
}

namespace milana {

using common::NodeId;
using common::Value;
using semel::DecisionRequest;
using semel::DecisionResponse;
using semel::GetRequest;
using semel::GetResponse;
using semel::PrepareRequest;
using semel::PrepareResponse;
using semel::ReplicateTxnRecord;
using semel::TxnDecision;
using semel::TxnStatusRequest;
using semel::TxnStatusResponse;
using semel::Vote;

class MilanaServer : public semel::Server
{
  public:
    struct MilanaConfig
    {
        /** Read-lease duration granted by backups. */
        common::Duration leaseDuration = 2 * common::kSecond;
        /** How often the primary renews its lease. */
        common::Duration leaseRenewPeriod = 500 * common::kMillisecond;
        /** Orphaned-prepare age that triggers the CTP. */
        common::Duration ctpTimeout = 50 * common::kMillisecond;
        common::Duration ctpScanPeriod = 20 * common::kMillisecond;
        /** Disable leases for single-node configurations. */
        bool enableLeases = true;
    };

    MilanaServer(sim::Simulator &sim, net::Network &net, NodeId id,
                 common::ShardId shard, ftl::KvBackend &backend,
                 clocksync::Clock &clock, const semel::Server::Config &config,
                 const MilanaConfig &milana_config,
                 semel::Master &master, semel::Directory &directory);

    /** Start background processes (lease renewal, CTP scanner). */
    void start();

    // -------------------------------------------------- RPC handlers

    /**
     * Snapshot read at request.at (= the transaction's ts_begin).
     * Updates ts_latestRead and reports whether a prepared version
     * with stamp <= at exists (local-validation input).
     */
    sim::Task<GetResponse> handleGet(GetRequest request) override;

    /** Phase 1 of 2PC: validate (Algorithm 1), persist + replicate the
     *  prepare record, vote. */
    sim::Task<PrepareResponse> handlePrepare(PrepareRequest request);

    /** Phase 2: apply the coordinator's decision. Idempotent. */
    sim::Task<DecisionResponse> handleDecision(DecisionRequest request);

    /** CTP status query from a peer participant. */
    sim::Task<TxnStatusResponse> handleTxnStatus(TxnStatusRequest request);

    /** Backup side: fold a replicated record into the transaction
     *  table; apply committed write sets. Order-insensitive. @p horizon
     *  is the primary's truncation horizon, which this replica adopts
     *  at its next CTP scan. */
    sim::Task<bool> handleReplicateTxnRecord(ReplicateTxnRecord record,
                                             Time horizon);

    /** Backup side: grant a read lease to the primary. */
    sim::Task<Time> handleLeaseGrant(Time until);

    /** Recovery pull: a promoted backup collects the transaction
     *  records and the maximum granted lease from its peers. */
    struct RecoveryPull
    {
        std::vector<ReplicateTxnRecord> records;
        Time maxLeaseGranted = 0;
    };
    sim::Task<RecoveryPull> handleRecoveryPull();

    // ------------------------------------------------------ failover

    /**
     * Promote this (backup) server to primary: merge the reachable
     * replicas' transaction tables into its own (Algorithm 2), re-apply
     * commits, commit single-shard prepares, re-mark multi-shard ones
     * for the CTP, wait out the old primary's lease, then serve. The
     * master must already have repointed the shard at this node.
     */
    sim::Task<void> recoverAsPrimary();

    // ---------------------------------------------------- population

    /** Bulk-load one key (initial population, no protocol overhead). */
    sim::Task<void> loadKey(Key key, Value value, Version version);

    // ---------------------------------------------------- inspection

    const TxnTable &txnTable() const { return txns_; }
    /** Records truncated from the transaction table so far. */
    std::uint64_t txnRecordsPruned() const { return pruned_; }
    /** The key's prepared-but-undecided version, if it is marked. */
    std::optional<Version> preparedVersion(Key key) const;
    bool recovering() const { return recovering_; }
    Time leaseUntil() const { return leaseUntil_; }

    /** Chaos awareness (may be null): while a clock fault is active,
     *  timestamp-order aborts are reported as ClockSuspect so clients
     *  and traces can tell "time misbehaved" from a real conflict. */
    void setChaos(const common::ChaosEngine *chaos) { chaos_ = chaos; }

  private:
    /** Remap timestamp-order abort reasons to ClockSuspect while a
     *  clock fault is active (no-op without a chaos engine). */
    semel::AbortReason classifyAbort(semel::AbortReason reason);

    /** Algorithm 1. Assumes key states are initialized. Returns
     *  AbortReason::None on a commit vote, else the failed check. */
    semel::AbortReason validate(const PrepareRequest &request);

    /** Initialize a key's DRAM state from storage if unseen (needed
     *  after failover, when ts_latestCommitted must be rebuilt from
     *  the version stamps). */
    sim::Task<void> ensureKeyState(Key key);

    /** Prepared-mark bookkeeping: the slot's kPrepared bit and the
     *  prepared_ entry change together. */
    void markPrepared(Key key, Version version, const TxnId &owner);
    /** Drop the key's prepared mark if @p owner holds it. */
    void clearPrepared(semel::KeySlot &slot, const TxnId &owner);
    /** True when the slot carries a prepared write stamped <= @p at. */
    bool preparedAtOrBefore(const semel::KeySlot &slot, Version at) const;

    /** Reads @p record only before its first suspension: a table
     *  entry moves when another is inserted. */
    sim::Task<void> applyCommit(const TxnSlot &record, bool late);
    void applyAbort(const TxnSlot &record);

    /** Send a copy of @p record to every backup (copied before the
     *  first suspension); optionally wait for the ack quorum. */
    sim::Task<void> replicateTxnRecord(const TxnSlot &record,
                                       bool wait_quorum);

    /** Round-trip sync with f backups (remote read-only validation
     *  pays this; local validation is what removes it). */
    sim::Task<bool> handleBarrier();
    sim::Task<void> barrierBackups();

    sim::Task<bool> renewLease();
    sim::Task<void> leaseLoop();
    sim::Task<void> ctpScanLoop();

    /** Cooperative termination for an orphaned prepared transaction. */
    sim::Task<void> resolveOrphan(TxnId txn);

    MilanaConfig mcfg_;
    clocksync::Clock &clock_;
    const common::ChaosEngine *chaos_ = nullptr;
    semel::Master &master_;
    semel::Directory &directory_;

    /** Transaction table; also this replica's log. */
    TxnTable txns_;
    /** Backup: newest truncation horizon its primary sent. */
    Time primaryHorizon_ = 0;
    std::uint64_t pruned_ = 0;
    /** ts_prepared and owner of each key whose slot has kPrepared. */
    common::KeyTable<PreparedSlot> prepared_;

    Time leaseUntil_ = 0;       ///< primary: lease expiry (local clock)
    Time maxLeaseGranted_ = 0;  ///< backup: newest lease it granted
    bool recovering_ = false;
    bool started_ = false;
    // Stat handles, each bound at its first use.
    common::CounterHandle abortClockSuspect_{
        stats_, "milana.abort_clock_suspect"};
    common::CounterHandle abortReadPrepared_{
        stats_, "milana.abort_read_prepared"};
    common::CounterHandle abortReadStale_{stats_, "milana.abort_read_stale"};
    common::CounterHandle abortWritePrepared_{
        stats_, "milana.abort_write_prepared"};
    common::CounterHandle abortWriteReadConflict_{
        stats_, "milana.abort_write_read_conflict"};
    common::CounterHandle abortWriteStale_{stats_, "milana.abort_write_stale"};
    common::CounterHandle aborted_{stats_, "milana.aborted"};
    common::CounterHandle committed_{stats_, "milana.committed"};
    common::CounterHandle ctpAborts_{stats_, "milana.ctp_aborts"};
    common::CounterHandle ctpCommits_{stats_, "milana.ctp_commits"};
    common::CounterHandle ctpInvocations_{stats_, "milana.ctp_invocations"};
    common::CounterHandle decisions_{stats_, "milana.decisions"};
    common::CounterHandle getUnavailable_{stats_, "milana.get_unavailable"};
    common::CounterHandle milanaGets_{stats_, "milana.gets"};
    common::CounterHandle leaseRenewals_{stats_, "milana.lease_renewals"};
    common::CounterHandle prepares_{stats_, "milana.prepares"};
    common::CounterHandle recoveries_{stats_, "milana.recoveries"};
    common::CounterHandle replicaRecords_{stats_, "milana.replica_records"};
    common::CounterHandle txnTableBelowHorizonMerge_{
        stats_, "milana.txn_table.below_horizon_merge"};
    common::CounterHandle txnTableBelowHorizonPrepare_{
        stats_, "milana.txn_table.below_horizon_prepare"};
    common::CounterHandle txnTableBelowHorizonStatus_{
        stats_, "milana.txn_table.below_horizon_status"};
    common::CounterHandle votesAbort_{stats_, "milana.votes_abort"};
    common::CounterHandle votesCommit_{stats_, "milana.votes_commit"};
    common::HistogramHandle milanaReplWait_{stats_, "milana.repl_wait"};
};

} // namespace milana

#endif // MILANA_SERVER_HH
