/**
 * @file
 * The MILANA primary's transaction table and per-key concurrency-
 * control state (paper section 4.1).
 *
 * The transaction table records transactions that have prepared but
 * whose outcome has not yet been applied; it is replicated to the
 * backups as it changes and rebuilt by a new primary on failover
 * (Algorithm 2).
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
using common::ShardId;
using common::Time;
using common::Version;
using semel::TxnId;
using semel::TxnStatus;
using semel::WriteSetEntry;

/** One transaction known to a primary. */
struct TxnEntry
{
    TxnId txn;
    Version commitVersion;
    std::vector<WriteSetEntry> writeSet;
    std::vector<ShardId> participants;
    TxnStatus status = TxnStatus::Prepared;
    /** TrueTime when this primary prepared it (for CTP timeouts). */
    Time preparedAt = 0;
};

class TxnTable
{
  public:
    void insert(TxnEntry entry);

    TxnEntry *find(const TxnId &txn);
    const TxnEntry *find(const TxnId &txn) const;

    /** Remove a decided transaction, remembering its outcome. */
    void resolve(const TxnId &txn, TxnStatus outcome);

    /** Status of a transaction: live entry, remembered outcome, or
     *  Unknown. Feeds the CTP status queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline. */
    std::vector<TxnId> preparedBefore(Time deadline) const;

    std::size_t size() const { return entries_.size(); }

    const std::map<TxnId, TxnEntry> &entries() const { return entries_; }

  private:
    std::map<TxnId, TxnEntry> entries_;
    /** Outcomes of resolved transactions (for idempotent decisions
     *  and CTP queries). */
    std::map<TxnId, TxnStatus> outcomes_;
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
