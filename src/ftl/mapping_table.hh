/**
 * @file
 * The zero-allocation storage data plane: an open-addressing
 * robin-hood mapping table from Key to a version chain, with the
 * common 1-version case stored inline in the table slot and overflow
 * chains carved from a size-class arena (arena.hh).
 *
 * This replaces `std::unordered_map<Key, VersionChain>` in the DRAM,
 * MFTL and VFTL backends. Design points:
 *
 *  - Power-of-two capacity, multiplicative (Fibonacci) hashing,
 *    linear probing with robin-hood displacement: a probing insert
 *    that meets a slot closer to its home bucket than itself evicts
 *    it (forward-shifting the contiguous run), keeping probe-length
 *    variance tiny at the 7/8 max load factor.
 *  - Tombstone-free erase: deleting a key backward-shifts the
 *    following run members one slot toward their home buckets, so
 *    lookups never wade through tombstones and the table never needs
 *    an anti-tombstone rehash.
 *  - Slot layout (DRAM backend: 64 bytes, one cache line):
 *
 *        Key      key       8B   }
 *        u32      dist      4B   }  header: dist==0 <=> slot empty,
 *        u16      count     2B   }  dist is probe distance + 1
 *        u16      capClass  2B   }  kInlineClass <=> entry is inline
 *        union {
 *          Entry  one      (inline newest version)
 *          Block  many     (arena block, capacity 2 << capClass,
 *                           + this chain's position in the index)
 *        }
 *
 *    A key with one live version (the overwhelming case after
 *    watermark pruning) costs one cache line and zero pointer
 *    chases. Chains that grow past one entry move to an arena block
 *    that doubles per size class; chains that shrink back to <= 1
 *    entry return their block to the arena freelist, so steady-state
 *    put/prune churn allocates nothing.
 *  - Multi-version index: a chain lives in an arena block exactly
 *    when it holds >= 2 versions, and only such a chain can lose a
 *    version to watermark pruning. A dense vector of their slot
 *    numbers, with each chain's position kept in the block half of
 *    its slot's union (bytes an inline Entry would use anyway), lets
 *    the backends' watermark sweeps visit those chains alone instead
 *    of every slot. Promotion appends, demotion/erase swap-removes,
 *    and a slot move rewrites its one index cell, all O(1); the
 *    vector is bounded by the live multi-version chains on every
 *    backend, including DRAM, which never sweeps.
 *  - All chain operations share ftl::chain_ops binary searches with
 *    the reference VersionChain, so semantics cannot drift
 *    (tests/store_semantics_test.cc replays both).
 *
 * Iteration order (slot order for forEach, index order for
 * forEachMultiVersion) differs from unordered_map order — safe here
 * because the one map iteration in the backends, the watermark sweep
 * over the multi-version index, only decrements live counters and
 * runs without suspension points, so its order is unobservable.
 *
 * KeyTable, at the bottom, is the same probe/shift/erase discipline
 * (table_detail) over fixed-size, trivially copyable slots: the
 * servers' per-key protocol state.
 *
 * Single-threaded by design, like the simulator that owns it.
 */

#ifndef FTL_MAPPING_TABLE_HH
#define FTL_MAPPING_TABLE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "ftl/arena.hh"
#include "ftl/version_chain.hh"

namespace ftl {

using common::Key;
using common::Time;
using common::Version;

namespace table_detail {

/** Fibonacci multiplicative hash; the table keeps the high bits. */
inline std::uint64_t
mixKey(Key key)
{
    return static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
}

inline std::size_t
pow2AtLeast(std::size_t n)
{
    return std::bit_ceil(n < 2 ? std::size_t{2} : n);
}

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
inline constexpr std::size_t kMinTableCap = 16;

/** Power-of-two capacity keeping the load under 7/8 after @p keys
 *  inserts. */
inline std::size_t
capacityFor(std::uint64_t keys)
{
    const std::size_t want = static_cast<std::size_t>(keys + keys / 7 + 1);
    return pow2AtLeast(want < kMinTableCap ? kMinTableCap : want);
}

/*
 * The robin-hood discipline both tables below share. A slot type has
 * `Key key` and `std::uint32_t dist` (probe distance + 1; 0 = empty);
 * the table is a power-of-two array probed from the top bits of the
 * Fibonacci hash. Payload moves are the caller's: @p move(dst, src)
 * carries src's payload into dst (dst's payload is dead) and leaves
 * src's dead.
 */

/** Index of @p key's slot, or kNpos. The table must be allocated. */
template <typename Slot>
inline std::size_t
probe(const Slot *slots, std::size_t mask, std::uint32_t shift, Key key)
{
    std::size_t i = mixKey(key) >> shift;
    std::uint32_t dist = 1;
    for (;;) {
        const Slot &s = slots[i];
        if (s.dist < dist) // includes empty (dist == 0)
            return kNpos;
        if (s.key == key)
            return i;
        i = (i + 1) & mask;
        ++dist;
    }
}

/**
 * Make slot @p pos a hole by moving the contiguous run starting there
 * one step right (into the first empty slot), bumping each displaced
 * resident's probe distance. The hole's dist is 0.
 */
template <typename Slot, typename Move>
inline void
shiftForward(Slot *slots, std::size_t mask, std::size_t pos, Move &&move)
{
    std::size_t e = pos;
    while (slots[e].dist != 0)
        e = (e + 1) & mask;
    while (e != pos) {
        const std::size_t p = (e - 1) & mask;
        Slot &dst = slots[e];
        Slot &src = slots[p];
        dst.key = src.key;
        dst.dist = src.dist + 1;
        move(dst, src);
        e = p;
    }
    slots[pos].dist = 0;
}

/**
 * Tombstone-free erase of the (already destroyed) slot @p idx: the
 * following run members move one slot toward home, and the slot at
 * the end of the run is left empty.
 */
template <typename Slot, typename Move>
inline void
backwardShift(Slot *slots, std::size_t mask, std::size_t idx, Move &&move)
{
    std::size_t hole = idx;
    for (;;) {
        const std::size_t next = (hole + 1) & mask;
        Slot &n = slots[next];
        if (n.dist <= 1)
            break;
        Slot &h = slots[hole];
        h.key = n.key;
        h.dist = n.dist - 1;
        move(h, n);
        hole = next;
    }
    slots[hole].dist = 0;
}

} // namespace table_detail

/**
 * Open-addressing robin-hood map from Key to a descending version
 * chain. See the file comment for layout and invariants.
 */
template <typename Loc>
class VersionStore
{
  private:
    struct Slot;

  public:
    using Entry = VersionEntry<Loc>;

    static constexpr std::size_t npos = table_detail::kNpos;

    /**
     * @param expected_keys pre-sizes the table so that many distinct
     * keys insert without a single rehash (0 = start minimal and
     * grow).
     */
    explicit VersionStore(std::uint64_t expected_keys = 0)
    {
        if (expected_keys > 0)
            rehash(table_detail::capacityFor(expected_keys));
    }

    VersionStore(const VersionStore &) = delete;
    VersionStore &operator=(const VersionStore &) = delete;

    ~VersionStore()
    {
        clear();
        ::operator delete(slots_);
    }

    class ChainRef;

    /** Chain for @p key, or a falsy ChainRef when absent. */
    ChainRef
    find(Key key)
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? ChainRef{} : ChainRef{this, idx};
    }

    /** Chain for @p key, creating an empty chain when absent. */
    ChainRef
    getOrCreate(Key key)
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            grow();
        std::size_t i = bucketOf(key);
        std::uint32_t dist = 1;
        for (;;) {
            Slot &s = slots_[i];
            if (s.dist == 0) {
                fillEmpty(s, key, dist);
                return ChainRef{this, i};
            }
            if (s.key == key)
                return ChainRef{this, i};
            if (s.dist < dist) {
                // Robin hood: this resident is closer to home than we
                // are; shift the run right and take its slot.
                table_detail::shiftForward(slots_, mask_, i, mover());
                fillEmpty(slots_[i], key, dist);
                return ChainRef{this, i};
            }
            i = (i + 1) & mask_;
            ++dist;
        }
    }

    /**
     * Remove a key and its chain. Backward-shift erase: the following
     * run members move one slot toward home, leaving no tombstone.
     */
    bool
    erase(Key key)
    {
        const std::size_t idx = findIndex(key);
        if (idx == npos)
            return false;
        destroyChain(slots_[idx]);
        table_detail::backwardShift(slots_, mask_, idx, mover());
        --size_;
        return true;
    }

    /**
     * Apply a delete stamped @p v: drop the key's versions <= @p v,
     * and the key once none is left. Returns how many were dropped.
     */
    template <typename OnDrop>
    std::size_t
    dropAtOrBelow(Key key, Version v, OnDrop &&on_drop)
    {
        const std::size_t idx = findIndex(key);
        if (idx == npos)
            return 0;
        Slot &s = slots_[idx];
        Entry *e = entriesOf(s);
        const std::size_t from = chain_ops::firstLeq(e, s.count, v);
        const std::size_t dropped = s.count - from;
        for (std::size_t i = from; i < s.count; ++i)
            on_drop(e[i]);
        truncate(s, from);
        if (s.count == 0)
            erase(key);
        return dropped;
    }

    /**
     * Drop every chain; capacity, arena slabs and the index's
     * capacity are retained.
     */
    void
    clear()
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (slots_[i].dist != 0) {
                destroyChain(slots_[i]);
                slots_[i].dist = 0;
            }
        }
        size_ = 0;
    }

    /**
     * Pre-size for @p keys distinct keys so bulk load performs no
     * rehashes. Never shrinks.
     */
    void
    reserveKeys(std::uint64_t keys)
    {
        const std::size_t want = table_detail::capacityFor(keys);
        if (want > cap_)
            rehash(want);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Number of live versions for @p key (0 when absent). */
    std::size_t
    versionCount(Key key) const
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? 0 : slots_[idx].count;
    }

    /**
     * Visit every (key, chain). @p fn may mutate the chain (insert,
     * prune, relocate) but must NOT erase keys or insert new ones —
     * either would move slots under the iteration.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (slots_[i].dist != 0)
                fn(slots_[i].key, ChainRef{this, i});
        }
    }

    /** Number of chains holding >= 2 versions (the index's size). */
    std::size_t multiVersionCount() const { return multi_.size(); }

    /**
     * Visit every (key, chain) whose chain holds >= 2 versions, each
     * exactly once, in unspecified order. @p fn may mutate the
     * visited chain (insert, prune, remove, relocate) but must not
     * erase or insert keys. Visiting runs back to front, so a chain
     * that drops out of the index under @p fn swaps in an entry that
     * was already visited.
     */
    template <typename Fn>
    void
    forEachMultiVersion(Fn &&fn)
    {
        for (std::size_t i = multi_.size(); i-- > 0;) {
            const std::size_t idx = multi_[i];
            fn(slots_[idx].key, ChainRef{this, idx});
        }
    }

    /**
     * Watermark sweep: the same effect as pruneBelowWatermark on
     * every chain via forEach, visiting only the multi-version index
     * (a chain of <= 1 version never drops anything). @p on_drop sees
     * the same multiset of entries, in unspecified order.
     */
    template <typename OnDrop>
    void
    pruneMultiVersion(Time watermark, OnDrop &&on_drop)
    {
        forEachMultiVersion([&](Key, ChainRef chain) {
            chain.pruneBelowWatermark(watermark, on_drop);
        });
    }

    /** Exact bytes held: slot array + arena slabs + index capacity. */
    std::uint64_t
    memoryBytes() const
    {
        return static_cast<std::uint64_t>(cap_) * sizeof(Slot) +
               arena_.slabBytes() +
               static_cast<std::uint64_t>(multi_.capacity()) *
                   sizeof(std::size_t);
    }

    /**
     * Borrowed reference to one key's chain. Valid until the next
     * operation that can move slots (getOrCreate of a new key, erase,
     * reserveKeys, clear); chain mutations through the ref itself are
     * fine. Mirrors VersionChain's interface.
     */
    class ChainRef
    {
      public:
        ChainRef() = default;

        explicit operator bool() const { return store_ != nullptr; }

        bool empty() const { return slot().count == 0; }
        std::size_t size() const { return slot().count; }

        /** Youngest entry; chain must be non-empty. */
        const Entry &youngest() const { return begin()[0]; }

        const Entry *
        begin() const
        {
            return VersionStore::entriesOf(slot());
        }
        const Entry *end() const { return begin() + slot().count; }

        /** Same contract as VersionChain::insert. */
        bool
        insert(Version v, Loc loc)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v)
                return false;
            store_->insertAt(s, idx, v, std::move(loc));
            return true;
        }

        /** Same contract as VersionChain::append. */
        bool
        append(Version v, Loc loc)
        {
            Slot &s = slot();
            if (s.count > 0) {
                const Entry *e = VersionStore::entriesOf(s);
                const Version tail = e[s.count - 1].version;
                if (tail == v)
                    return false;
                if (tail < v)
                    return insert(v, std::move(loc));
            }
            store_->insertAt(s, s.count, v, std::move(loc));
            return true;
        }

        /** Youngest entry with stamp <= at, or nullptr. */
        const Entry *
        findAt(Version at) const
        {
            const Slot &s = slot();
            const Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, at);
            return idx < s.count ? &e[idx] : nullptr;
        }

        /** Mutable entry for an exact version, or nullptr. */
        Entry *
        find(Version v)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v)
                return &e[idx];
            return nullptr;
        }

        bool
        contains(Version v) const
        {
            const Slot &s = slot();
            const Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            return idx < s.count && e[idx].version == v;
        }

        /** Same contract as VersionChain::pruneBelowWatermark. */
        template <typename OnDrop>
        void
        pruneBelowWatermark(Time watermark, OnDrop &&on_drop)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t keep =
                chain_ops::firstTsLeq(e, s.count, watermark);
            const std::size_t first_drop = keep + 1;
            if (first_drop >= s.count)
                return;
            for (std::size_t i = first_drop; i < s.count; ++i)
                on_drop(e[i]);
            store_->truncate(s, first_drop);
        }

        /** Same contract as VersionChain::remove. */
        bool
        remove(Version v)
        {
            Slot &s = slot();
            Entry *e = VersionStore::entriesOf(s);
            const std::size_t idx =
                chain_ops::firstLeq(e, s.count, v);
            if (idx < s.count && e[idx].version == v) {
                store_->removeAt(s, idx);
                return true;
            }
            return false;
        }

        /** Same contract as VersionChain::relocate. */
        bool
        relocate(Version v, Loc loc)
        {
            if (Entry *e = find(v)) {
                e->loc = std::move(loc);
                return true;
            }
            return false;
        }

      private:
        friend class VersionStore;
        ChainRef(VersionStore *store, std::size_t index)
            : store_(store), index_(index)
        {
        }

        Slot &slot() const { return store_->slots_[index_]; }

        VersionStore *store_ = nullptr;
        std::size_t index_ = 0;
    };

  private:
    friend class ChainRef;

    /** capClass value marking "entry lives inline in the slot". */
    static constexpr std::uint16_t kInlineClass = 0xffff;

    /** An overflow chain: its arena block and its index position. */
    struct Block
    {
        Entry *entries;
        std::size_t pos; // multi_[pos] is this slot's number
    };

    // The index position rides in bytes the inline Entry occupies
    // anyway, so the index costs the slot nothing.
    static_assert(sizeof(Block) <= sizeof(Entry),
                  "Block must fit in the inline-entry union");

    struct Slot
    {
        Key key;
        std::uint32_t dist;     // probe distance + 1; 0 = empty
        std::uint16_t count;    // live versions in this chain
        std::uint16_t capClass; // arena class, or kInlineClass
        union Rep {
            Rep() {}
            ~Rep() {}
            Entry one;
            Block many;
        } rep;
    };

    static Entry *
    entriesOf(Slot &s)
    {
        return s.capClass == kInlineClass ? &s.rep.one
                                          : s.rep.many.entries;
    }

    static const Entry *
    entriesOf(const Slot &s)
    {
        return s.capClass == kInlineClass ? &s.rep.one
                                          : s.rep.many.entries;
    }

    static std::uint32_t
    chainCapacity(const Slot &s)
    {
        return s.capClass == kInlineClass
                   ? 1u
                   : ChainArena<Entry>::capacityOf(s.capClass);
    }

    void
    fillEmpty(Slot &s, Key key, std::uint32_t dist)
    {
        s.key = key;
        s.dist = dist;
        s.count = 0;
        s.capClass = kInlineClass;
        ++size_;
    }

    std::size_t
    bucketOf(Key key) const
    {
        return table_detail::mixKey(key) >> shift_;
    }

    std::size_t
    findIndex(Key key) const
    {
        return cap_ == 0 ? npos
                         : table_detail::probe(slots_, mask_, shift_, key);
    }

    // --- chain storage management ------------------------------------

    /** Insert at chain index @p idx in [0, count], growing if full. */
    void
    insertAt(Slot &s, std::size_t idx, Version v, Loc &&loc)
    {
        if (s.count == chainCapacity(s))
            growChain(s);
        Entry *e = entriesOf(s);
        if (idx == s.count) {
            new (&e[idx]) Entry{v, std::move(loc)};
        } else {
            // Shift [idx, count) up by one: move-construct the new
            // tail, move-assign the middle, assign the freed hole.
            new (&e[s.count]) Entry(std::move(e[s.count - 1]));
            for (std::size_t j = s.count - 1; j > idx; --j)
                e[j] = std::move(e[j - 1]);
            e[idx] = Entry{v, std::move(loc)};
        }
        ++s.count;
    }

    void
    removeAt(Slot &s, std::size_t idx)
    {
        Entry *e = entriesOf(s);
        for (std::size_t j = idx + 1; j < s.count; ++j)
            e[j - 1] = std::move(e[j]);
        e[s.count - 1].~Entry();
        --s.count;
        maybeShrink(s);
    }

    /** Destroy entries [from, count) — the prune tail drop. */
    void
    truncate(Slot &s, std::size_t from)
    {
        Entry *e = entriesOf(s);
        for (std::size_t j = from; j < s.count; ++j)
            e[j].~Entry();
        s.count = static_cast<std::uint16_t>(from);
        maybeShrink(s);
    }

    // Out of line: inlined (index append included) into the
    // getOrCreate/append loops, it slowed bulk load and puts by up to
    // ~25% under GCC 12 -O3, though it runs only when a chain
    // outgrows its block.
    [[gnu::noinline]] void
    growChain(Slot &s)
    {
        const std::uint16_t cls =
            s.capClass == kInlineClass
                ? 0
                : static_cast<std::uint16_t>(s.capClass + 1);
        Entry *blk = arena_.allocate(cls);
        Entry *e = entriesOf(s);
        for (std::size_t i = 0; i < s.count; ++i) {
            new (&blk[i]) Entry(std::move(e[i]));
            e[i].~Entry();
        }
        if (s.capClass == kInlineClass) {
            // Promotion: the chain is about to hold 2 versions.
            s.rep.many.pos = multi_.size();
            multi_.push_back(slotNumber(s));
        } else {
            arena_.deallocate(s.rep.many.entries, s.capClass);
        }
        s.rep.many.entries = blk;
        s.capClass = cls;
    }

    /** Chains at <= 1 entry fold back inline, recycling their block. */
    void
    maybeShrink(Slot &s)
    {
        if (s.capClass == kInlineClass || s.count > 1)
            return;
        // rep is a union: save the block before rep.one overwrites
        // those bytes.
        const Block blk = s.rep.many;
        const std::uint16_t cls = s.capClass;
        s.capClass = kInlineClass;
        unindex(blk.pos);
        if (s.count == 1) {
            new (&s.rep.one) Entry(std::move(blk.entries[0]));
            blk.entries[0].~Entry();
        }
        arena_.deallocate(blk.entries, cls);
    }

    void
    destroyChain(Slot &s)
    {
        Entry *e = entriesOf(s);
        for (std::size_t i = 0; i < s.count; ++i)
            e[i].~Entry();
        if (s.capClass != kInlineClass) {
            unindex(s.rep.many.pos);
            arena_.deallocate(s.rep.many.entries, s.capClass);
        }
        s.count = 0;
        s.capClass = kInlineClass;
    }

    std::size_t
    slotNumber(const Slot &s) const
    {
        return static_cast<std::size_t>(&s - slots_);
    }

    /** Swap-remove index cell @p pos, re-pointing the moved chain. */
    void
    unindex(std::size_t pos)
    {
        const std::size_t last = multi_.back();
        multi_[pos] = last;
        slots_[last].rep.many.pos = pos;
        multi_.pop_back();
    }

    /**
     * Move src's chain payload into dst (dst's payload must be dead;
     * dst must be a slot of the current table). Inline entries move
     * by move-construction; overflow chains transfer the block and
     * re-point their index cell at dst. src is left empty.
     */
    void
    movePayload(Slot &dst, Slot &src)
    {
        dst.count = src.count;
        dst.capClass = src.capClass;
        if (src.capClass == kInlineClass) {
            if (src.count == 1) {
                new (&dst.rep.one) Entry(std::move(src.rep.one));
                src.rep.one.~Entry();
            }
        } else {
            dst.rep.many = src.rep.many;
            multi_[dst.rep.many.pos] = slotNumber(dst);
        }
        src.count = 0;
        src.capClass = kInlineClass;
    }

    /** movePayload as the shared robin-hood helpers' move hook. */
    auto
    mover()
    {
        return [this](Slot &dst, Slot &src) { movePayload(dst, src); };
    }

    // --- table growth ------------------------------------------------

    void
    grow()
    {
        rehash(cap_ == 0 ? table_detail::kMinTableCap : cap_ * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        Slot *old = slots_;
        const std::size_t old_cap = cap_;
        slots_ = allocSlots(new_cap);
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(
            64 - std::countr_zero(new_cap));
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            Slot &s = old[i];
            if (s.dist == 0)
                continue;
            // Capacity is already final, so this cannot re-enter
            // grow(); the new slot's payload is empty — overwrite it.
            ChainRef ref = getOrCreate(s.key);
            movePayload(ref.slot(), s);
        }
        ::operator delete(old);
    }

    Slot *
    allocSlots(std::size_t n)
    {
        auto *p = static_cast<Slot *>(::operator new(n * sizeof(Slot)));
        // Zero-fill: dist == 0 marks every slot empty; union bytes are
        // raw until a chain is constructed.
        std::memset(static_cast<void *>(p), 0, n * sizeof(Slot));
        return p;
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
    ChainArena<Entry> arena_;
    /** Slot numbers of the chains holding >= 2 versions. */
    std::vector<std::size_t> multi_;
};

/**
 * Robin-hood table of fixed-size per-key slots: the same probe,
 * forward-shift insert, backward-shift erase and hash as VersionStore,
 * with the whole payload inline. It backs per-key state that is a few
 * words per key (e.g. the servers' per-key OCC state), so a lookup is
 * one probe run in one array and steady state allocates nothing.
 *
 * @p Slot is trivially copyable and carries `Key key` and
 * `std::uint32_t dist` (table bookkeeping; callers never write them);
 * every other member is payload, zero on creation. References into
 * the table are invalidated by any insert of a new key (robin-hood
 * shifts, growth), erase, reserve or clear.
 */
template <typename Slot>
class KeyTable
{
    static_assert(std::is_trivially_copyable_v<Slot>,
                  "KeyTable slots move by copy");

  public:
    explicit KeyTable(std::uint64_t expected_keys = 0)
    {
        if (expected_keys > 0)
            rehash(table_detail::capacityFor(expected_keys));
    }

    KeyTable(const KeyTable &) = delete;
    KeyTable &operator=(const KeyTable &) = delete;

    ~KeyTable() { ::operator delete(slots_); }

    Slot *
    find(Key key)
    {
        const std::size_t i = findIndex(key);
        return i == table_detail::kNpos ? nullptr : &slots_[i];
    }

    const Slot *
    find(Key key) const
    {
        const std::size_t i = findIndex(key);
        return i == table_detail::kNpos ? nullptr : &slots_[i];
    }

    /** Slot for @p key, created with a zero payload when absent. */
    Slot &
    getOrCreate(Key key)
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            grow();
        std::size_t i = table_detail::mixKey(key) >> shift_;
        std::uint32_t dist = 1;
        for (;;) {
            Slot &s = slots_[i];
            if (s.dist != 0 && s.key == key)
                return s;
            if (s.dist < dist) {
                // Empty, or a resident closer to home than we are:
                // shift its run right and take the slot.
                if (s.dist != 0)
                    table_detail::shiftForward(slots_, mask_, i, copier());
                s = Slot{};
                s.key = key;
                s.dist = dist;
                ++size_;
                return s;
            }
            i = (i + 1) & mask_;
            ++dist;
        }
    }

    /** Remove @p key; returns false when it was absent. */
    bool
    erase(Key key)
    {
        const std::size_t i = findIndex(key);
        if (i == table_detail::kNpos)
            return false;
        table_detail::backwardShift(slots_, mask_, i, copier());
        --size_;
        return true;
    }

    /** Drop every slot; capacity is retained. */
    void
    clear()
    {
        if (cap_ > 0)
            std::memset(static_cast<void *>(slots_), 0,
                        cap_ * sizeof(Slot));
        size_ = 0;
    }

    /** Pre-size for @p keys keys with no rehash. Never shrinks. */
    void
    reserve(std::uint64_t keys)
    {
        const std::size_t want = table_detail::capacityFor(keys);
        if (want > cap_)
            rehash(want);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Exact bytes held: the slot array. */
    std::uint64_t
    memoryBytes() const
    {
        return static_cast<std::uint64_t>(cap_) * sizeof(Slot);
    }

  private:
    static auto
    copier()
    {
        return [](Slot &dst, const Slot &src) {
            const Key key = dst.key;
            const std::uint32_t dist = dst.dist;
            dst = src;
            dst.key = key;
            dst.dist = dist;
        };
    }

    std::size_t
    findIndex(Key key) const
    {
        return cap_ == 0 ? table_detail::kNpos
                         : table_detail::probe(slots_, mask_, shift_, key);
    }

    void
    grow()
    {
        rehash(cap_ == 0 ? table_detail::kMinTableCap : cap_ * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        Slot *old = slots_;
        const std::size_t old_cap = cap_;
        slots_ = static_cast<Slot *>(::operator new(new_cap * sizeof(Slot)));
        std::memset(static_cast<void *>(slots_), 0, new_cap * sizeof(Slot));
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(64 - std::countr_zero(new_cap));
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].dist != 0)
                copier()(getOrCreate(old[i].key), old[i]);
        }
        ::operator delete(old);
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
};

} // namespace ftl

#endif // FTL_MAPPING_TABLE_HH
