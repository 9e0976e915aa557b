/**
 * @file
 * A MILANA server's transaction table and per-key concurrency-
 * control state (paper section 4.1).
 *
 * The transaction table is a server's only per-transaction record and
 * its replica log. It answers CTP status queries, and a promoted
 * backup re-applies its committed write sets (Algorithm 2). It is one
 * flat common::KeyTable of TxnSlot, keyed by the packed TxnId. A slot
 * packs status and flag bits beside the commit version, the way a
 * TicToc TID word packs lock and status bits beside its timestamp.
 * A record's write set and participants share one size-class block
 * of an ftl::ChainArena; an abort frees the block (recovery re-applies
 * only commits), and so does truncation.
 *
 * Two small indexes keep each pass off the whole table: `live_`
 * holds the keys of undecided transactions (all the CTP scan and
 * the horizon's live minimum read), and `expiry_` is a min-heap on
 * commit timestamp over the decided ones (truncation pops only what
 * it drops). Every record is in exactly one of them. Whatever drives
 * events walks ids in TxnId order, as the ordered map before it did.
 *
 * Decided records are truncated at a horizon H (DESIGN.md section 7):
 * below H every participant primary has decided the transaction and
 * every replica of this shard holds the outcome, so no CTP query,
 * late duplicate or recovery can refer to it. The table keeps only
 * the transactions of the last few hundred milliseconds, so once H
 * advances the slot array, the arena and both indexes stop growing
 * and the table allocates nothing.
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

#include <span>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "ftl/arena.hh"
#include "ftl/mapping_table.hh"
#include "semel/messages.hh"

namespace milana {

using common::Key;
using common::ShardId;
using common::Time;
using common::Version;
using semel::TxnId;
using semel::TxnStatus;
using semel::WriteSetEntry;

/**
 * A TxnId as a 64-bit table key: the client in the top 24 bits, the
 * serial in the low 40, so key order is TxnId order. PANICs on an id
 * that does not fit.
 */
Key packTxnId(const TxnId &txn);
TxnId unpackTxnId(Key key);

/**
 * One transaction-table entry (56 B): an common::KeyTable slot whose
 * write set and participants live in one arena block.
 *
 *     Key      key            8B  packed TxnId } table bookkeeping
 *     u32      dist           4B               }
 *     u8       status         1B  TxnStatus
 *     u8       flags          1B  kLive, kReplicated
 *     u8       cls            1B  the block's arena size class
 *     Version  commitVersion 16B
 *     Time     preparedAt     8B  the CTP timeout runs from here
 *     u64*     block          8B  writes, then participants (or null)
 *     u32      writes         4B  write-set entries in the block
 *     u32      shards         4B  participants in the block
 *
 * preparedAt and kReplicated are this replica's own state and never
 * cross the wire.
 */
struct TxnSlot
{
    /** Undecided: the key is in the live index, not the heap. */
    static constexpr std::uint8_t kLive = 1;
    /** On a primary, every backup acknowledged this outcome. */
    static constexpr std::uint8_t kReplicated = 2;

    Key key;
    std::uint32_t dist;
    TxnStatus status;
    std::uint8_t flags;
    std::uint8_t cls;
    Version commitVersion;
    Time preparedAt;
    std::uint64_t *block;
    std::uint32_t writes;
    std::uint32_t shards;

    TxnId txn() const { return unpackTxnId(key); }
    bool live() const { return (flags & kLive) != 0; }

    std::span<const WriteSetEntry>
    writeSet() const
    {
        return {reinterpret_cast<const WriteSetEntry *>(block), writes};
    }

    std::span<const ShardId>
    participants() const
    {
        return {reinterpret_cast<const ShardId *>(writeSet().data() +
                                                  writes),
                shards};
    }

    /** The wire copy of this entry: what a backup receives. */
    semel::ReplicateTxnRecord toRecord() const;
};

static_assert(std::is_trivially_copyable_v<TxnSlot>,
              "TxnSlot moves by copy inside the KeyTable");
static_assert(sizeof(TxnSlot) <= 64, "TxnSlot must stay within 64 B");

class TxnTable
{
  public:
    using Record = semel::ReplicateTxnRecord;

    TxnTable() = default;
    TxnTable(const TxnTable &) = delete;
    TxnTable &operator=(const TxnTable &) = delete;
    ~TxnTable();

    /**
     * Fold in a record, in any order and any number of times: a
     * prepare of an unknown transaction goes live (its CTP timeout
     * running from @p prepared_at), an outcome beats a prepare, and a
     * decided transaction is left alone, as is a live one a decider
     * has claimed (set its status) and will resolve. A record stamped
     * below the horizon is dropped: its transaction was decided
     * everywhere and may already be truncated (at-most-once). Returns
     * the stored entry when @p record changed the table, else
     * nullptr. An entry pointer lasts until the next merge() or
     * truncate(); the write set it points to lasts until the entry is
     * aborted or truncated.
     */
    const TxnSlot *merge(const Record &record, Time prepared_at);

    /** The live (undecided) entry of a transaction, or nullptr. */
    TxnSlot *findLive(const TxnId &txn);
    /** The entry of a transaction, live or decided, or nullptr. */
    const TxnSlot *find(const TxnId &txn) const;

    /** Decide a live transaction (an abort frees its block). */
    const TxnSlot &resolve(const TxnId &txn, TxnStatus outcome);

    /** Status of a transaction, Unknown if it has no entry. Feeds
     *  the CTP status queries. */
    TxnStatus statusOf(const TxnId &txn) const;

    /** Prepared transactions older than the given deadline, in TxnId
     *  order. */
    std::vector<TxnId> preparedBefore(Time deadline) const;
    /** Live transactions, in TxnId order. */
    std::vector<TxnId> liveIds() const;
    /** Decided transactions, in TxnId order. */
    std::vector<TxnId> decidedIds() const;

    /** Live transactions. */
    std::size_t size() const { return live_.size(); }
    /** Decided transactions not yet truncated. */
    std::size_t decidedCount() const { return expiry_.size(); }

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

    /** Exact bytes held: slot array, arena slabs and both indexes.
     *  None of them ever shrinks. */
    std::uint64_t memoryBytes() const;
    /** Slots in the slot array. */
    std::size_t slotCapacity() const { return slots_.capacity(); }

  private:
    using Arena = ftl::ChainArena<std::uint64_t>;

    /** A decided record, ordered by commit timestamp for truncate(). */
    struct Expiry
    {
        Time commit;
        Key key;

        /** Heap order: the oldest commit on top. */
        static bool
        later(const Expiry &a, const Expiry &b)
        {
            return a.commit > b.commit;
        }
    };

    /** Copy @p record's write set and participants into a block. */
    void storeBlock(TxnSlot &slot, const Record &record);
    /** Destroy the block's writes and return it to the arena. */
    void freeBlock(TxnSlot &slot);
    /** Sorted keys, unpacked. */
    static std::vector<TxnId> idsOf(std::vector<Key> keys);

    common::KeyTable<TxnSlot> slots_;
    Arena arena_;
    /** Keys of the live records, unordered. */
    std::vector<Key> live_;
    /** Min-heap on commit timestamp over the decided records. */
    std::vector<Expiry> expiry_;
    Time horizon_ = 0;
};

/**
 * A key's prepared-but-undecided write and the transaction that owns
 * it (48 B): one common::KeyTable slot, present exactly while the key's
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
