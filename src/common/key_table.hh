/**
 * @file
 * KeyTable, the one robin-hood hash table behind every per-key map
 * keyed by a 64-bit Key: the servers' per-key OCC state, the
 * transaction table, the network's per-link state and the storage data
 * plane, ftl::VersionStore (ftl/mapping_table.hh), which is a KeyTable
 * of version-chain slots.
 *
 *  - Power-of-two capacity, multiplicative (Fibonacci) hashing,
 *    linear probing with robin-hood displacement, at most 7/8 full.
 *  - Erase by backward shift, with no deleted-slot markers.
 *  - A slot is `Key key`, `std::uint32_t dist` and a payload. The
 *    table places slots; a hooks type sets up and moves payloads, so a
 *    payload that owns memory (a version chain) moves the same way as
 *    a few plain words (CopySlotHooks, the default).
 *
 * Slot arrays come from allocSlotArray: at paper scale (2M keys,
 * 192 MiB per table) an array on 2 MiB pages costs a probe one cache
 * miss instead of a miss plus a page walk.
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
#include <utility>

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

} // namespace table_detail

/**
 * KeyTable's hooks for a trivially copyable slot: a new slot's payload
 * is zero and a payload moves by copy.
 */
template <typename Slot>
struct CopySlotHooks
{
    static_assert(std::is_trivially_copyable_v<Slot>,
                  "CopySlotHooks move slots by copy");

    void init(Slot &s) const { s = Slot{}; }

    void
    move(Slot &dst, const Slot &src) const
    {
        const Key key = dst.key;
        const std::uint32_t dist = dst.dist;
        dst = src;
        dst.key = key;
        dst.dist = dist;
    }
};

/**
 * Robin-hood table of fixed-size per-key slots. A lookup is one probe
 * run in one array, and steady state allocates nothing.
 *
 * @p Slot carries `Key key` and `std::uint32_t dist` (probe distance
 * + 1, 0 = empty: table bookkeeping that callers never write); every
 * other member is payload, which @p Hooks manages:
 *
 *  - `init(Slot &s)` gives the slot taken for a new key an empty
 *    payload; the table writes key and dist after it.
 *  - `move(Slot &dst, Slot &src)` carries src's payload into dst and
 *    leaves src's dead. dst is a slot of the current array whose key
 *    and dist are already written and whose payload is dead. It runs
 *    for every resident that an insert's forward shift, an erase's
 *    backward shift or a rehash moves.
 *
 * The table never destroys a payload: a caller whose payload owns
 * anything releases it before erase, clear or destruction. References
 * into the table are invalidated by any insert of a new key (robin-hood
 * shifts, growth), erase, reserve or clear.
 */
template <typename Slot, typename Hooks = CopySlotHooks<Slot>>
class KeyTable
{
  public:
    explicit KeyTable(std::uint64_t expected_keys = 0, Hooks hooks = {})
        : hooks_(hooks)
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
        return const_cast<Slot *>(std::as_const(*this).find(key));
    }

    const Slot *
    find(Key key) const
    {
        if (cap_ == 0)
            return nullptr;
        std::size_t i = table_detail::mixKey(key) >> shift_;
        std::uint32_t dist = 1;
        for (;;) {
            const Slot &s = slots_[i];
            if (s.dist < dist) // includes empty (dist == 0)
                return nullptr;
            if (s.key == key)
                return &s;
            i = (i + 1) & mask_;
            ++dist;
        }
    }

    /** Slot for @p key, created with an empty payload when absent. */
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
                    shiftForward(i);
                hooks_.init(s);
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
        Slot *s = find(key);
        if (s == nullptr)
            return false;
        backwardShift(static_cast<std::size_t>(s - slots_));
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

    /** Visit every slot in array order. @p fn may change a payload but
     *  must not insert or erase keys. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (slots_[i].dist != 0)
                fn(slots_[i]);
        }
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
    /**
     * Make slot @p pos a hole by moving the contiguous run starting
     * there one step right (into the first empty slot), bumping each
     * displaced resident's probe distance. The hole's dist is 0.
     */
    void
    shiftForward(std::size_t pos)
    {
        std::size_t e = pos;
        while (slots_[e].dist != 0)
            e = (e + 1) & mask_;
        while (e != pos) {
            const std::size_t p = (e - 1) & mask_;
            slots_[e].key = slots_[p].key;
            slots_[e].dist = slots_[p].dist + 1;
            hooks_.move(slots_[e], slots_[p]);
            e = p;
        }
        slots_[pos].dist = 0;
    }

    /**
     * Marker-free erase of slot @p idx (its payload dead): the
     * following run members move one slot toward home, and the slot at
     * the end of the run is left empty.
     */
    void
    backwardShift(std::size_t idx)
    {
        std::size_t hole = idx;
        for (;;) {
            const std::size_t next = (hole + 1) & mask_;
            if (slots_[next].dist <= 1)
                break;
            slots_[hole].key = slots_[next].key;
            slots_[hole].dist = slots_[next].dist - 1;
            hooks_.move(slots_[hole], slots_[next]);
            hole = next;
        }
        slots_[hole].dist = 0;
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
        // Capacity is final, so getOrCreate cannot re-enter grow().
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].dist != 0)
                hooks_.move(getOrCreate(old[i].key), old[i]);
        }
        table_detail::freeSlotArray(old, old_cap * sizeof(Slot));
    }

    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64; // >> 64 is UB; guarded by cap_ == 0
    std::size_t size_ = 0;
    [[no_unique_address]] Hooks hooks_;
};

} // namespace common

#endif // COMMON_KEY_TABLE_HH
