/**
 * @file
 * The robin-hood open-addressing discipline shared by the flat
 * tables keyed by a 64-bit Key: ftl::VersionStore (the storage data
 * plane, ftl/mapping_table.hh) and KeyTable, a table of fixed-size,
 * trivially copyable slots.
 *
 *  - Power-of-two capacity, multiplicative (Fibonacci) hashing,
 *    linear probing with robin-hood displacement, at most 7/8 full.
 *  - Tombstone-free erase by backward shift.
 *
 * Both tables take their slot arrays from allocSlotArray: at paper
 * scale (2M keys, 192 MiB per table) an array on 2 MiB pages costs a
 * probe one cache miss instead of a miss plus a page walk.
 *
 * Single-threaded by design, like the simulator that owns it.
 */

#ifndef COMMON_KEY_TABLE_HH
#define COMMON_KEY_TABLE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include <sys/mman.h>

#include "common/types.hh"

namespace common {

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

/** A transparent huge page on x86-64 and arm64 (4 KiB base pages). */
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

/**
 * A zeroed slot array of @p bytes, freed by freeSlotArray with the
 * same @p bytes. An array smaller than kHugePage is a plain
 * `::operator new`. A larger one starts on a kHugePage boundary and
 * its whole huge pages are advised MADV_HUGEPAGE (the process's own
 * memory; no system setting); the tail past the last whole huge page
 * stays on base pages, so RSS never grows by a half-used huge page.
 *
 * The large path over-allocates by kHugePage through the same plain,
 * unaligned `::operator new`, so every allocation counter that
 * replaces it still sees the table, and keeps the raw pointer in the
 * word before the array. Since `::operator new` returns memory
 * aligned for a pointer, the array and that word always fit.
 */
inline void *
allocSlotArray(std::size_t bytes)
{
    if (bytes < kHugePage) {
        void *p = ::operator new(bytes);
        std::memset(p, 0, bytes);
        return p;
    }
    void *raw = ::operator new(bytes + kHugePage);
    const std::uintptr_t first =
        reinterpret_cast<std::uintptr_t>(raw) + sizeof(void *);
    auto *p = reinterpret_cast<char *>((first + kHugePage - 1) &
                                       ~(kHugePage - 1));
    std::memcpy(p - sizeof(void *), &raw, sizeof(void *));
    // Advice first, so the zero-fill faults the array in huge pages.
    // A kernel without THP refuses it; the array still works.
    ::madvise(p, bytes / kHugePage * kHugePage, MADV_HUGEPAGE);
    std::memset(p, 0, bytes);
    return p;
}

/** Free an array from allocSlotArray(@p bytes); null is a no-op. */
inline void
freeSlotArray(void *p, std::size_t bytes)
{
    if (p == nullptr || bytes < kHugePage) {
        ::operator delete(p);
        return;
    }
    void *raw;
    std::memcpy(&raw, static_cast<char *>(p) - sizeof(void *),
                sizeof(void *));
    ::operator delete(raw);
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
 * Robin-hood table of fixed-size per-key slots: the same probe,
 * forward-shift insert, backward-shift erase and hash as
 * ftl::VersionStore, with the whole payload inline. It backs state
 * that is a few words per key (the servers' per-key OCC state, the
 * transaction table, the network's per-link state), so a lookup is
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

    ~KeyTable() { table_detail::freeSlotArray(slots_, cap_ * sizeof(Slot)); }

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
        slots_ = static_cast<Slot *>(
            table_detail::allocSlotArray(new_cap * sizeof(Slot)));
        cap_ = new_cap;
        mask_ = new_cap - 1;
        shift_ = static_cast<std::uint32_t>(64 - std::countr_zero(new_cap));
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].dist != 0)
                copier()(getOrCreate(old[i].key), old[i]);
        }
        table_detail::freeSlotArray(old, old_cap * sizeof(Slot));
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
};

} // namespace common

#endif // COMMON_KEY_TABLE_HH
