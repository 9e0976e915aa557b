/**
 * @file
 * Per-key version chains: the in-DRAM mapping-table entries of the
 * paper's multi-version FTL (Figure 3). Each key maps to a list of
 * versions sorted by descending create-timestamp; a version carries a
 * location cookie (physical page for MFTL, logical block for VFTL,
 * nothing for DRAM).
 *
 * Watermark pruning implements section 3.1's rule: keep the youngest
 * version whose stamp is <= watermark plus everything younger; discard
 * the rest.
 *
 * Two chain implementations share the algorithms in ftl::chain_ops:
 *
 *  - VersionChain (this file): a std::vector-backed chain. Kept as the
 *    reference implementation — tests/store_semantics_test.cc replays
 *    identical operation sequences against it and the arena-backed
 *    chains inside ftl::VersionStore (mapping_table.hh) and demands
 *    identical observable behaviour.
 *  - VersionStore::ChainRef (mapping_table.hh): the production data
 *    plane — inline 1-version slots with size-class arena overflow.
 *
 * All lookups and insertions are branch-light binary searches over the
 * descending entries (chains are sorted, so a linear walk is pure
 * waste once hot keys accumulate versions).
 */

#ifndef FTL_VERSION_CHAIN_HH
#define FTL_VERSION_CHAIN_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ftl {

using common::Time;
using common::Version;

/** One version's mapping entry. Loc is a backend-specific locator. */
template <typename Loc>
struct VersionEntry
{
    Version version;
    Loc loc;
};

/**
 * Shared algorithms over a descending-sorted array of VersionEntry.
 * Both chain implementations call these, so their semantics cannot
 * drift apart.
 */
namespace chain_ops {

/**
 * Index of the first entry with version <= @p v (entries are sorted
 * descending, so this is the youngest version at or below v), or
 * @p count when every entry is younger. Branch-light binary search:
 * the loop body is a compare + conditional base advance, no
 * data-dependent early exit.
 */
template <typename Entry>
inline std::size_t
firstLeq(const Entry *entries, std::size_t count, Version v)
{
    std::size_t lo = 0;
    std::size_t n = count;
    while (n > 0) {
        const std::size_t half = n >> 1;
        if (entries[lo + half].version > v) {
            lo += half + 1;
            n -= half + 1;
        } else {
            n = half;
        }
    }
    return lo;
}

/**
 * Index of the first entry with version.timestamp <= @p watermark
 * (the youngest entry at or below the watermark), or @p count.
 * Timestamps are non-increasing along a descending-version chain, so
 * the same binary-search shape applies.
 */
template <typename Entry>
inline std::size_t
firstTsLeq(const Entry *entries, std::size_t count, Time watermark)
{
    std::size_t lo = 0;
    std::size_t n = count;
    while (n > 0) {
        const std::size_t half = n >> 1;
        if (entries[lo + half].version.timestamp > watermark) {
            lo += half + 1;
            n -= half + 1;
        } else {
            n = half;
        }
    }
    return lo;
}

} // namespace chain_ops

/**
 * Sorted (descending by version) chain of a key's versions.
 */
template <typename Loc>
class VersionChain
{
  public:
    using Entry = VersionEntry<Loc>;

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Youngest entry; chain must be non-empty. */
    const Entry &youngest() const { return entries_.front(); }

    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * Insert a version, keeping descending order. Duplicate stamps
     * (idempotent replays) are ignored; returns false in that case.
     */
    bool
    insert(Version v, Loc loc)
    {
        const std::size_t idx =
            chain_ops::firstLeq(entries_.data(), entries_.size(), v);
        if (idx < entries_.size() && entries_[idx].version == v)
            return false;
        entries_.insert(entries_.begin() +
                            static_cast<std::ptrdiff_t>(idx),
                        Entry{v, std::move(loc)});
        return true;
    }

    /**
     * Bulk-load fast path: append a version known to be older than
     * everything present (loaders feed versions pre-sorted, newest
     * first). Falls back to insert() when the precondition does not
     * hold. Returns false on a duplicate stamp.
     */
    bool
    append(Version v, Loc loc)
    {
        if (!entries_.empty()) {
            const Version tail = entries_.back().version;
            if (tail == v)
                return false;
            if (tail < v)
                return insert(v, std::move(loc));
        }
        entries_.push_back(Entry{v, std::move(loc)});
        return true;
    }

    /** Youngest entry with stamp <= at, or nullptr. */
    const Entry *
    findAt(Version at) const
    {
        const std::size_t idx =
            chain_ops::firstLeq(entries_.data(), entries_.size(), at);
        return idx < entries_.size() ? &entries_[idx] : nullptr;
    }

    /** Mutable entry for an exact version, or nullptr. */
    Entry *
    find(Version v)
    {
        const std::size_t idx =
            chain_ops::firstLeq(entries_.data(), entries_.size(), v);
        if (idx < entries_.size() && entries_[idx].version == v)
            return &entries_[idx];
        return nullptr;
    }

    /** True if the given exact version is present. */
    bool
    contains(Version v) const
    {
        const std::size_t idx =
            chain_ops::firstLeq(entries_.data(), entries_.size(), v);
        return idx < entries_.size() && entries_[idx].version == v;
    }

    /**
     * Drop versions made obsolete by the watermark; invokes
     * @p on_drop(entry) for each discarded entry so the caller can
     * release the storage it references. Keeps the youngest version
     * with timestamp <= watermark and everything younger.
     */
    template <typename OnDrop>
    void
    pruneBelowWatermark(Time watermark, OnDrop &&on_drop)
    {
        // entries_ is descending; the youngest entry <= watermark is
        // kept, everything after it is prunable.
        const std::size_t keep = chain_ops::firstTsLeq(
            entries_.data(), entries_.size(), watermark);
        const std::size_t first_drop = keep + 1;
        for (std::size_t i = first_drop; i < entries_.size(); ++i)
            on_drop(entries_[i]);
        if (first_drop < entries_.size())
            entries_.resize(first_drop);
    }

  private:
    std::vector<Entry> entries_;
};

} // namespace ftl

#endif // FTL_VERSION_CHAIN_HH
