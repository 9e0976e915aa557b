/**
 * @file
 * The zero-allocation storage data plane: a map from Key to a version
 * chain, with the common 1-version case stored inline in the table
 * slot and overflow chains carved from a size-class arena (arena.hh).
 *
 * This replaces `std::unordered_map<Key, VersionChain>` in the DRAM,
 * MFTL and VFTL backends. Design points:
 *
 *  - The table is a common::KeyTable of chain slots (key_table.hh):
 *    robin-hood probing at most 7/8 full, slot arrays on 2 MiB pages
 *    at paper scale. Storage is put-only, so a key stays until
 *    clear(). VersionStore adds only the payload: its slot hooks
 *    start a new slot as an empty inline chain and move a chain
 *    (inline entry or arena block, with its index cell) whenever the
 *    table moves a slot.
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
 *    version to watermark pruning. A dense vector of pointers to their
 *    slots, with each chain's position kept in the block half of its
 *    slot's union (bytes an inline Entry would use anyway), lets the
 *    backends' watermark sweeps visit those chains alone instead of
 *    every slot. Promotion appends, demotion swap-removes, and
 *    the move hook rewrites a moved chain's one index cell, all O(1);
 *    the vector is bounded by the live multi-version chains on every
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
 * Single-threaded by design, like the simulator that owns it.
 */

#ifndef FTL_MAPPING_TABLE_HH
#define FTL_MAPPING_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/key_table.hh"
#include "common/types.hh"
#include "ftl/arena.hh"
#include "ftl/version_chain.hh"

namespace ftl {

using common::Key;
using common::Time;
using common::Version;

/**
 * Robin-hood map from Key to a descending version chain: a
 * common::KeyTable of chain slots. See the file comment for layout and
 * invariants.
 */
template <typename Loc>
class VersionStore
{
  private:
    struct Slot;

  public:
    using Entry = VersionEntry<Loc>;

    /**
     * @param expected_keys pre-sizes the table so that many distinct
     * keys insert without a single rehash (0 = start minimal and
     * grow).
     */
    explicit VersionStore(std::uint64_t expected_keys = 0)
        : table_(expected_keys, SlotHooks{this})
    {
    }

    VersionStore(const VersionStore &) = delete;
    VersionStore &operator=(const VersionStore &) = delete;

    ~VersionStore()
    {
        table_.forEach([this](Slot &s) { destroyChain(s); });
    }

    class ChainRef;

    /** Chain for @p key, or a falsy ChainRef when absent. */
    ChainRef
    find(Key key)
    {
        Slot *s = table_.find(key);
        return s == nullptr ? ChainRef{} : ChainRef{this, s};
    }

    /** Chain for @p key, creating an empty chain when absent. */
    ChainRef
    getOrCreate(Key key)
    {
        return ChainRef{this, &table_.getOrCreate(key)};
    }

    /**
     * Drop every chain; capacity, arena slabs and the index's
     * capacity are retained.
     */
    void
    clear()
    {
        table_.forEach([this](Slot &s) { destroyChain(s); });
        table_.clear();
    }

    /**
     * Pre-size for @p keys distinct keys so bulk load performs no
     * rehashes. Never shrinks.
     */
    void reserveKeys(std::uint64_t keys) { table_.reserve(keys); }

    std::size_t size() const { return table_.size(); }
    std::size_t capacity() const { return table_.capacity(); }

    /** Number of live versions for @p key (0 when absent). */
    std::size_t
    versionCount(Key key) const
    {
        const Slot *s = table_.find(key);
        return s == nullptr ? 0 : s->count;
    }

    /**
     * Visit every (key, chain). @p fn may mutate the chain (insert,
     * prune, move a locator) but must NOT insert new keys — that
     * would move slots under the iteration.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        table_.forEach([&](Slot &s) { fn(s.key, ChainRef{this, &s}); });
    }

    /** Number of chains holding >= 2 versions (the index's size). */
    std::size_t multiVersionCount() const { return multi_.size(); }

    /**
     * Visit every (key, chain) whose chain holds >= 2 versions, each
     * exactly once, in unspecified order. @p fn may mutate the
     * visited chain (insert, prune, move a locator) but must not
     * insert keys. Visiting runs back to front, so a chain
     * that drops out of the index under @p fn swaps in an entry that
     * was already visited.
     */
    template <typename Fn>
    void
    forEachMultiVersion(Fn &&fn)
    {
        for (std::size_t i = multi_.size(); i-- > 0;) {
            Slot *s = multi_[i];
            fn(s->key, ChainRef{this, s});
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
        return table_.memoryBytes() + arena_.slabBytes() +
               static_cast<std::uint64_t>(multi_.capacity()) *
                   sizeof(Slot *);
    }

    /**
     * Borrowed reference to one key's chain. Valid until the next
     * operation that can move slots (getOrCreate of a new key,
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

      private:
        friend class VersionStore;
        ChainRef(VersionStore *store, Slot *slot) : store_(store), slot_(slot)
        {
        }

        Slot &slot() const { return *slot_; }

        VersionStore *store_ = nullptr;
        Slot *slot_ = nullptr;
    };

  private:
    friend class ChainRef;

    /** capClass value marking "entry lives inline in the slot". */
    static constexpr std::uint16_t kInlineClass = 0xffff;

    /** An overflow chain: its arena block and its index position. */
    struct Block
    {
        Entry *entries;
        std::size_t pos; // multi_[pos] points at this slot
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
            multi_.push_back(&s);
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

    /** Swap-remove index cell @p pos, re-pointing the moved chain. */
    void
    unindex(std::size_t pos)
    {
        Slot *last = multi_.back();
        multi_[pos] = last;
        last->rep.many.pos = pos;
        multi_.pop_back();
    }

    /**
     * Move src's chain payload into dst (dst's payload must be dead;
     * dst must be a slot of the current array): KeyTable's move hook.
     * Inline entries move by move-construction; overflow chains
     * transfer the block and re-point their index cell at dst. src is
     * left empty.
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
            multi_[dst.rep.many.pos] = &dst;
        }
        src.count = 0;
        src.capClass = kInlineClass;
    }

    /** The table's payload hooks: a new slot holds an empty inline
     *  chain, and a moved slot carries its chain. */
    struct SlotHooks
    {
        VersionStore *store;

        void
        init(Slot &s) const
        {
            s.count = 0;
            s.capClass = kInlineClass;
        }

        void
        move(Slot &dst, Slot &src) const
        {
            store->movePayload(dst, src);
        }
    };

    ChainArena<Entry> arena_;
    /** The slots of the chains holding >= 2 versions. */
    std::vector<Slot *> multi_;
    // Last, so its slot array is freed before the arena and the index.
    common::KeyTable<Slot, SlotHooks> table_;
};

} // namespace ftl

#endif // FTL_MAPPING_TABLE_HH
