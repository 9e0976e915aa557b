/**
 * @file
 * MILANA client library (paper sections 4.1-4.3): executes each
 * transaction entirely on one client, which assigns the begin and
 * commit timestamps from its PTP/NTP clock and acts as the 2PC
 * coordinator.
 *
 * Execution model (after Thor):
 *  - reads go to the shard primary at ts_begin and are cached; repeat
 *    reads and reads of buffered writes are served locally;
 *  - writes are buffered and pushed to the primaries only at commit;
 *  - read-only transactions validate *locally*: they commit iff every
 *    read came back from a consistent snapshot — version <= ts_begin
 *    and no prepared version <= ts_begin — eliminating both commit
 *    round trips (client->primary and primary->backups);
 *  - read-write transactions run two-phase commit across the
 *    participant primaries; the outcome is reported to the
 *    application immediately and the decision is propagated to the
 *    participants asynchronously.
 */

#ifndef MILANA_CLIENT_HH
#define MILANA_CLIENT_HH

#include <array>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/small_vector.hh"
#include "milana/server.hh"
#include "semel/client.hh"

namespace milana {

using common::ClientId;
using semel::GetResponse;
using semel::ReadSetEntry;
using semel::TxnId;
using semel::Value;

/** Outcome of commitTransaction(). */
enum class CommitResult : std::uint8_t
{
    Committed,
    /** Validation conflict: retry with fresh timestamps. */
    Aborted,
    /** Infrastructure failure (unreachable primaries). */
    Failed,
};

/** Result of a transactional read. */
struct TxnRead
{
    /** False if the read could not be served (RPC failure). */
    bool ok = false;
    bool found = false;
    Value value;
};

/**
 * Execution hint given at begin (section 4.3): a transaction declared
 * read-write in advance may use relaxed read paths (nearest-replica
 * reads, section 4.6; aggressive client caching) because it will
 * validate remotely at commit regardless.
 */
enum class TxnHint : std::uint8_t
{
    Default,
    ReadWrite,
};

/** Client-side transaction context. */
class Transaction
{
  public:
    bool active() const { return active_; }
    bool readOnly() const
    {
        return writeSet_.empty() && hint_ == TxnHint::Default;
    }
    TxnHint hint() const { return hint_; }
    common::Version begin() const { return begin_; }
    const TxnId &id() const { return id_; }
    /** Trace id grouping every span of this transaction (0 when
     *  tracing is disabled); printed by trace-report --txn=<id>. */
    std::uint64_t traceId() const { return traceId_; }

  private:
    friend class MilanaClient;
    friend class CentimanClient;

    struct CachedRead
    {
        bool found = false;
        common::Version observed;
        Value value;
    };

    /** Keys a transaction holds inline; Retwis touches at most ten.
     *  Larger transactions spill to the heap. Both sets iterate in key
     *  order, which fixes the order prepares list and validate keys. */
    static constexpr std::size_t kInlineKeys = 10;

    TxnId id_;
    common::Version begin_;
    std::uint64_t traceId_ = 0;
    common::SmallMap<common::Key, CachedRead, kInlineKeys> readSet_;
    common::SmallMap<common::Key, Value, kInlineKeys> writeSet_;
    /** A read returned a prepared-flag or a version newer than
     *  ts_begin: the snapshot is not consistent. */
    bool snapshotViolated_ = false;
    bool active_ = false;
    TxnHint hint_ = TxnHint::Default;
    semel::AbortReason abortReason_ = semel::AbortReason::None;
    /** Set by twoPhaseCommit; the stamp committed writes carry. */
    common::Version commitVersion_;
};

class MilanaClient : public semel::Client
{
  public:
    /** AbortReason values, each counted as `txn.abort.<reason>`. */
    static constexpr std::size_t kAbortReasons =
        static_cast<std::size_t>(semel::AbortReason::Timeout) + 1;

    struct TxnConfig
    {
        /** Client-local validation of read-only transactions
         *  (section 4.3). Off = remote validation (Figure 8 w/o LV). */
        bool localValidation = true;
        /** Section 4.6 relaxation: transactions hinted read-write may
         *  read from any replica (load balancing); their reads are
         *  re-validated at the primary during prepare. */
        bool readFromAnyReplica = false;
        /** Section 4.3 "aggressive caching": hinted transactions may
         *  serve reads from an inter-transaction client cache and
         *  must then validate remotely. 0 disables. */
        std::size_t interTxnCacheCapacity = 0;
    };

    MilanaClient(sim::Simulator &sim, net::Network &net, NodeId node,
                 ClientId client_id, clocksync::Clock &clock,
                 const semel::Master &master,
                 const semel::Directory &directory,
                 const TxnConfig &txn_config);
    ~MilanaClient() override = default;

    /** Start a transaction: assigns ts_begin from the local clock. */
    Transaction beginTransaction(TxnHint hint = TxnHint::Default);

    /** Transactional read; adds the key to the read set. */
    sim::Task<TxnRead> get(Transaction &txn, Key key);

    /** Buffer a write; adds the key to the write set. */
    void put(Transaction &txn, Key key, Value value);

    /** Run the commit protocol; returns the outcome. */
    sim::Task<CommitResult> commitTransaction(Transaction &txn);

    /** Discard all transaction state. */
    void abortTransaction(Transaction &txn);

    /** Truncation input: lastAcked() (the latest decided transaction,
     *  the watermark input of section 4.4), or the commit stamp of a
     *  transaction whose prepares or decisions are still in flight, or
     *  of one whose decision RPC was lost, whichever is oldest. */
    Time doneBelow() const override;

    /** Chaos awareness (may be null): prepare failures that happen
     *  while a fault window is active are reported as Timeout rather
     *  than PrepareFailed, and non-committed outcomes tag the txn
     *  trace with the active fault's name (trace-report --txn=). */
    void setChaos(const common::ChaosEngine *chaos) { chaos_ = chaos; }

  protected:
    /** The validation/commit strategy; overridden by the Centiman
     *  baseline (section 5.3). */
    virtual sim::Task<CommitResult> decideCommit(Transaction &txn);

    MilanaServer *milanaPrimaryFor(common::ShardId shard) const;
    /** Any replica of the key's shard (section 4.6 read relaxation). */
    MilanaServer *anyReplicaFor(Key key, common::Rng &rng) const;
    sim::Task<CommitResult> commitReadOnlyLocal(Transaction &txn);
    sim::Task<CommitResult> twoPhaseCommit(Transaction &txn,
                                           bool read_only);

    /** One decision RPC of transaction @p serial came back (or was
     *  lost, which pins doneBelow() at its stamp for good). */
    void decisionReturned(std::uint64_t serial, bool delivered);

    TxnConfig tcfg_;
    const common::ChaosEngine *chaos_ = nullptr;
    /** A transaction from its commit stamp until its last decision RPC
     *  returns: its prepares, then `pending` decisions, are in flight. */
    struct InFlight
    {
        std::uint64_t serial;
        Time commit;
        std::size_t pending;
    };
    std::vector<InFlight> inFlight_;
    /** Oldest commit stamp whose decision RPC was lost. */
    Time lostDecisionBelow_ = std::numeric_limits<Time>::max();
    std::uint64_t nextSerial_ = 1;
    /** Inter-transaction read cache (insertion-order bounded). */
    std::map<Key, Transaction::CachedRead> interTxnCache_;
    common::Rng replicaRng_{0xC0FFEE};
    // Stat handles, each bound at its first use.
    /** `txn.abort.<reason>`, indexed by AbortReason. */
    std::array<common::CounterHandle, kAbortReasons> abortCounters_;
    common::CounterHandle aborted_{stats_, "txn.aborted"};
    common::CounterHandle begun_{stats_, "txn.begun"};
    common::CounterHandle cacheHits_{stats_, "txn.cache_hits"};
    common::CounterHandle clientAborts_{stats_, "txn.client_aborts"};
    common::CounterHandle committed_{stats_, "txn.committed"};
    common::CounterHandle failed_{stats_, "txn.failed"};
    common::CounterHandle faultActiveAborts_{
        stats_, "txn.fault_active_aborts"};
    common::CounterHandle localValidationFail_{
        stats_, "txn.local_validation_fail"};
    common::CounterHandle localValidations_{stats_, "txn.local_validations"};
    common::CounterHandle readFailures_{stats_, "txn.read_failures"};
    common::CounterHandle replicaReads_{stats_, "txn.replica_reads"};
};

} // namespace milana

#endif // MILANA_CLIENT_HH
