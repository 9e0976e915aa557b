#include "milana/txn_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace milana {

const TxnTable::Record *
TxnTable::merge(Record record)
{
    if (record.commitVersion.timestamp < horizon_ ||
        decided_.contains(record.txn))
        return nullptr;
    const TxnId txn = record.txn;
    const TxnStatus status = record.status;
    // try_emplace leaves `record` untouched when the key exists.
    auto [it, inserted] = live_.try_emplace(txn, std::move(record));
    if (status == TxnStatus::Prepared)
        return inserted ? &it->second : nullptr;
    if (!inserted) {
        // An outcome beats a prepare. A claimed record (its decision
        // is being applied) is left for its decider to resolve.
        if (it->second.status != TxnStatus::Prepared)
            return nullptr;
        it->second = std::move(record);
    }
    return &resolve(txn, status);
}

TxnTable::Record *
TxnTable::findLive(const TxnId &txn)
{
    auto it = live_.find(txn);
    return it == live_.end() ? nullptr : &it->second;
}

const TxnTable::Record *
TxnTable::find(const TxnId &txn) const
{
    auto it = live_.find(txn);
    if (it != live_.end())
        return &it->second;
    it = decided_.find(txn);
    return it == decided_.end() ? nullptr : &it->second;
}

const TxnTable::Record &
TxnTable::resolve(const TxnId &txn, TxnStatus outcome)
{
    auto node = live_.extract(txn);
    if (node.empty())
        PANIC("resolving a transaction that is not live");
    Record &record = node.mapped();
    record.status = outcome;
    // Recovery re-applies committed writes and nothing else.
    if (outcome == TxnStatus::Aborted)
        record.writeSet = std::vector<semel::WriteSetEntry>();
    const Time commit = record.commitVersion.timestamp;
    const Records::iterator it = decided_.insert(std::move(node)).position;
    expiry_.push_back(Expiry{commit, it});
    std::push_heap(expiry_.begin(), expiry_.end(), Expiry::later);
    return it->second;
}

TxnStatus
TxnTable::statusOf(const TxnId &txn) const
{
    const Record *record = find(txn);
    return record == nullptr ? TxnStatus::Unknown : record->status;
}

std::vector<TxnId>
TxnTable::preparedBefore(Time deadline) const
{
    std::vector<TxnId> stale;
    for (const auto &[id, record] : live_) {
        if (record.status == TxnStatus::Prepared &&
            record.preparedAt < deadline)
            stale.push_back(id);
    }
    return stale;
}

void
TxnTable::noteReplicated(const TxnId &txn)
{
    auto it = decided_.find(txn);
    if (it != decided_.end())
        it->second.replicated = true;
}

std::size_t
TxnTable::truncate(Time limit, bool need_replicated)
{
    for (const auto &[id, record] : live_)
        limit = std::min(limit, record.commitVersion.timestamp);
    std::size_t dropped = 0;
    while (!expiry_.empty() && expiry_.front().commit < limit) {
        const Records::iterator it = expiry_.front().record;
        if (need_replicated && !it->second.replicated) {
            limit = expiry_.front().commit;
            break;
        }
        std::pop_heap(expiry_.begin(), expiry_.end(), Expiry::later);
        expiry_.pop_back();
        decided_.erase(it);
        ++dropped;
    }
    horizon_ = std::max(horizon_, limit);
    return dropped;
}

} // namespace milana
