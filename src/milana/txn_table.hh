/**
 * @file
 * A MILANA server's transaction table and per-key concurrency-
 * control state (paper section 4.1).
 *
 * The transaction table is a server's only per-transaction record and
 * its replica log. `live_` holds undecided transactions (all the CTP
 * scan walks); `decided_` holds outcomes, keeping write sets only for
 * commits, which a promoted backup re-applies (Algorithm 2).
 *
 * `decided_` is truncated at a horizon H (DESIGN.md section 7): below
 * H every participant primary has decided the transaction and every
 * replica of this shard holds the outcome, so no CTP query, late
 * duplicate or recovery can refer to it. The table keeps only the
 * transactions of the last few hundred milliseconds, and a record
 * stamped below H never comes back.
 *
 * Per active key the primary keeps, in DRAM only:
 *   - ts_latestRead:      newest begin-timestamp that read the key;
 *   - ts_prepared:        the (single) prepared-but-undecided write;
 *   - ts_latestCommitted: newest committed write stamp.
 * ts_latestRead is not recoverable after failover; leases make that
 * safe (section 4.5).
 *
 * ts_latestRead, ts_latestCommitted and a prepared bit live in the
 * server's one per-key table (semel::KeySlot, 48 B). ts_prepared and
 * its owner live in PreparedSlot below, a side table holding only the
 * keys with a live prepare: it is read only when the bit is set, so
 * it stays a few slots however large the key space.
 */

#ifndef MILANA_TXN_TABLE_HH
#define MILANA_TXN_TABLE_HH

#include <map>
#include <vector>

#include "common/types.hh"
#include "semel/messages.hh"

namespace milana {

using common::Key;
using common::Time;
using common::Version;
using semel::TxnId;
using semel::TxnStatus;

class TxnTable
{
  public:
    using Record = semel::ReplicateTxnRecord;
    using Records = std::map<TxnId, Record>;

    /**
     * Fold in a record, in any order and any number of times: a
     * prepare of an unknown transaction goes live, an outcome beats a
     * prepare, and a decided transaction is left alone, as is a live
     * one a decider has claimed (set its status) and will resolve. A
     * record stamped below the horizon is dropped: its transaction was
     * decided everywhere and may already be truncated (at-most-once).
     * Returns the stored record when @p record changed the table,
     * else nullptr.
     */
    const Record *merge(Record record);

    /** The live (undecided) record of a transaction, or nullptr. */
    Record *findLive(const TxnId &txn);
    /** The record of a transaction, live or decided, or nullptr. */
    const Record *find(const TxnId &txn) const;

    /** Decide a live transaction: its node moves to the decided
     *  records (an abort drops the write set). */
    const Record &resolve(const TxnId &txn, TxnStatus outcome);

    /** Status of a transaction, Unknown if it has no record. Feeds
     *  the CTP status queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline. */
    std::vector<TxnId> preparedBefore(Time deadline) const;

    /** Live transactions. */
    std::size_t size() const { return live_.size(); }

    const Records &live() const { return live_; }
    const Records &decided() const { return decided_; }

    /** Every backup acknowledged a decided transaction's outcome (a
     *  truncated one is ignored). */
    void noteReplicated(const TxnId &txn);

    /** Commit timestamps below this are truncated. */
    Time horizon() const { return horizon_; }

    /**
     * Raise the horizon towards @p limit and drop the decided records
     * below it, oldest first. The horizon never passes a live record,
     * nor, when @p need_replicated (a primary with backups), a decided
     * one not yet noteReplicated(), and it never falls. Returns how
     * many records went.
     */
    std::size_t truncate(Time limit, bool need_replicated);

  private:
    /** A decided record, ordered by commit timestamp for truncate(). */
    struct Expiry
    {
        Time commit;
        Records::iterator record;

        /** Heap order: the oldest commit on top. */
        static bool
        later(const Expiry &a, const Expiry &b)
        {
            return a.commit > b.commit;
        }
    };

    Records live_;
    Records decided_;
    /** Min-heap on commit timestamp over every record in decided_: the
     *  truncation walks only the records it drops. */
    std::vector<Expiry> expiry_;
    Time horizon_ = 0;
};

/**
 * A key's prepared-but-undecided write and the transaction that owns
 * it (48 B): one ftl::KeyTable slot, present exactly while the key's
 * semel::KeySlot has kPrepared set.
 *
 *     Key      key      8B  } table bookkeeping
 *     u32      dist     4B  }
 *     Version  version 16B  ts_prepared
 *     TxnId    owner   16B
 */
struct PreparedSlot
{
    Key key;
    std::uint32_t dist;
    Version version;
    TxnId owner;
};

static_assert(sizeof(PreparedSlot) <= 48,
              "PreparedSlot must stay within 48 B");

} // namespace milana

#endif // MILANA_TXN_TABLE_HH
