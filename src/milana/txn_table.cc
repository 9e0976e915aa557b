#include "milana/txn_table.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"

namespace milana {

namespace {

constexpr unsigned kSerialBits = 40;
constexpr std::uint64_t kSerialMask = (std::uint64_t{1} << kSerialBits) - 1;
constexpr std::uint64_t kClientLimit = std::uint64_t{1}
                                       << (64 - kSerialBits);

} // namespace

Key
packTxnId(const TxnId &txn)
{
    if (txn.client >= kClientLimit || txn.serial > kSerialMask)
        PANIC("transaction id " << txn.client << ":" << txn.serial
                                << " does not fit a table key");
    return static_cast<Key>(txn.client) << kSerialBits | txn.serial;
}

TxnId
unpackTxnId(Key key)
{
    return TxnId{static_cast<common::ClientId>(key >> kSerialBits),
                 key & kSerialMask};
}

semel::ReplicateTxnRecord
TxnSlot::toRecord() const
{
    const auto writes = writeSet();
    const auto shards = participants();
    return semel::ReplicateTxnRecord{
        .txn = txn(),
        .status = status,
        .commitVersion = commitVersion,
        .writeSet = {writes.begin(), writes.end()},
        .participants = {shards.begin(), shards.end()},
    };
}

TxnTable::~TxnTable()
{
    // Destroy the writes' strings before the arena frees its slabs;
    // every record is in the live index or the heap.
    for (const Key key : live_)
        freeBlock(*slots_.find(key));
    for (const Expiry &e : expiry_)
        freeBlock(*slots_.find(e.key));
}

void
TxnTable::storeBlock(TxnSlot &slot, const Record &record)
{
    const std::size_t bytes =
        record.writeSet.size() * sizeof(WriteSetEntry) +
        record.participants.size() * sizeof(ShardId);
    if (bytes == 0)
        return;
    const auto words = static_cast<std::uint32_t>(
        (bytes + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t));
    slot.cls = static_cast<std::uint8_t>(Arena::classFor(words));
    slot.block = arena_.allocate(slot.cls);
    slot.writes = static_cast<std::uint32_t>(record.writeSet.size());
    slot.shards = static_cast<std::uint32_t>(record.participants.size());
    auto *writes = reinterpret_cast<WriteSetEntry *>(slot.block);
    std::uninitialized_copy(record.writeSet.begin(), record.writeSet.end(),
                            writes);
    std::uninitialized_copy(record.participants.begin(),
                            record.participants.end(),
                            reinterpret_cast<ShardId *>(writes + slot.writes));
}

void
TxnTable::freeBlock(TxnSlot &slot)
{
    if (slot.block == nullptr)
        return;
    std::destroy_n(reinterpret_cast<WriteSetEntry *>(slot.block),
                   slot.writes);
    arena_.deallocate(slot.block, slot.cls);
    slot.block = nullptr;
    slot.writes = 0;
    slot.shards = 0;
}

const TxnSlot *
TxnTable::merge(const Record &record, Time prepared_at)
{
    if (record.commitVersion.timestamp < horizon_)
        return nullptr;
    const Key key = packTxnId(record.txn);
    if (const TxnSlot *slot = slots_.find(key)) {
        // An outcome beats a prepare. A claimed record (its decision
        // is being applied) is left for its decider to resolve.
        if (!slot->live() || record.status == TxnStatus::Prepared ||
            slot->status != TxnStatus::Prepared)
            return nullptr;
        return &resolve(record.txn, record.status);
    }
    TxnSlot &slot = slots_.getOrCreate(key);
    slot.status = TxnStatus::Prepared;
    slot.flags = TxnSlot::kLive;
    slot.commitVersion = record.commitVersion;
    slot.preparedAt = prepared_at;
    live_.push_back(key);
    if (record.status == TxnStatus::Prepared) {
        storeBlock(slot, record);
        return &slot;
    }
    // Recovery re-applies committed writes and nothing else.
    if (record.status == TxnStatus::Committed)
        storeBlock(slot, record);
    return &resolve(record.txn, record.status);
}

TxnSlot *
TxnTable::findLive(const TxnId &txn)
{
    TxnSlot *slot = slots_.find(packTxnId(txn));
    return slot != nullptr && slot->live() ? slot : nullptr;
}

const TxnSlot *
TxnTable::find(const TxnId &txn) const
{
    return slots_.find(packTxnId(txn));
}

const TxnSlot &
TxnTable::resolve(const TxnId &txn, TxnStatus outcome)
{
    TxnSlot *slot = findLive(txn);
    if (slot == nullptr)
        PANIC("resolving a transaction that is not live");
    slot->status = outcome;
    slot->flags &= static_cast<std::uint8_t>(~TxnSlot::kLive);
    // Recovery re-applies committed writes and nothing else.
    if (outcome == TxnStatus::Aborted)
        freeBlock(*slot);
    auto it = std::find(live_.begin(), live_.end(), slot->key);
    *it = live_.back();
    live_.pop_back();
    expiry_.push_back(Expiry{slot->commitVersion.timestamp, slot->key});
    std::push_heap(expiry_.begin(), expiry_.end(), Expiry::later);
    return *slot;
}

TxnStatus
TxnTable::statusOf(const TxnId &txn) const
{
    const TxnSlot *slot = find(txn);
    return slot == nullptr ? TxnStatus::Unknown : slot->status;
}

std::vector<TxnId>
TxnTable::idsOf(std::vector<Key> keys)
{
    std::sort(keys.begin(), keys.end());
    std::vector<TxnId> ids;
    ids.reserve(keys.size());
    for (const Key key : keys)
        ids.push_back(unpackTxnId(key));
    return ids;
}

std::vector<TxnId>
TxnTable::preparedBefore(Time deadline) const
{
    std::vector<Key> stale;
    for (const Key key : live_) {
        const TxnSlot &slot = *slots_.find(key);
        if (slot.status == TxnStatus::Prepared && slot.preparedAt < deadline)
            stale.push_back(key);
    }
    return idsOf(std::move(stale));
}

std::vector<TxnId>
TxnTable::liveIds() const
{
    return idsOf(live_);
}

std::vector<TxnId>
TxnTable::decidedIds() const
{
    std::vector<Key> keys;
    keys.reserve(expiry_.size());
    for (const Expiry &e : expiry_)
        keys.push_back(e.key);
    return idsOf(std::move(keys));
}

void
TxnTable::noteReplicated(const TxnId &txn)
{
    TxnSlot *slot = slots_.find(packTxnId(txn));
    if (slot != nullptr && !slot->live())
        slot->flags |= TxnSlot::kReplicated;
}

std::size_t
TxnTable::truncate(Time limit, bool need_replicated)
{
    for (const Key key : live_)
        limit = std::min(limit, slots_.find(key)->commitVersion.timestamp);
    std::size_t dropped = 0;
    while (!expiry_.empty() && expiry_.front().commit < limit) {
        const Key key = expiry_.front().key;
        TxnSlot &slot = *slots_.find(key);
        if (need_replicated && (slot.flags & TxnSlot::kReplicated) == 0) {
            limit = expiry_.front().commit;
            break;
        }
        std::pop_heap(expiry_.begin(), expiry_.end(), Expiry::later);
        expiry_.pop_back();
        freeBlock(slot);
        slots_.erase(key);
        ++dropped;
    }
    horizon_ = std::max(horizon_, limit);
    return dropped;
}

std::uint64_t
TxnTable::memoryBytes() const
{
    return slots_.memoryBytes() + arena_.slabBytes() +
           live_.capacity() * sizeof(Key) +
           expiry_.capacity() * sizeof(Expiry);
}

} // namespace milana
