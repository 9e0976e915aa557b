/**
 * @file
 * Equivalence tests for the two version-chain implementations: the
 * std::vector-backed reference VersionChain (version_chain.hh) and
 * the production arena-backed chains inside VersionStore
 * (mapping_table.hh). Every scenario replays one operation sequence
 * against both and demands identical observable behaviour — return
 * values, chain contents, dropped entries — so the zero-allocation
 * data plane cannot silently drift from the reference semantics.
 *
 * The two randomized replays also run over a locator that owns heap
 * memory (StrLoc), the shape of the DRAM backend's string payload, so
 * every slot move the table makes runs a real move constructor.
 *
 * Also covers what the reference cannot: table capacity independence
 * (same contents whatever the initial pre-size), the multi-version
 * index behind the watermark sweep (exact after
 * every op; an indexed sweep equals a full-table one), and the
 * KeyTable behind the servers' per-key state (against an
 * unordered_map reference), and the slot arrays both tables share,
 * which move onto 2 MiB pages once they are that large.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/key_table.hh"
#include "ftl/mapping_table.hh"
#include "ftl/version_chain.hh"

using common::Key;
using common::Time;
using common::Version;

namespace {

struct Loc
{
    std::uint64_t cookie = 0;

    bool operator==(const Loc &o) const = default;
};

/**
 * A locator that owns heap memory: 40 characters, past the
 * small-string buffer, carrying a cookie. `live` counts the StrLocs
 * not yet destroyed, so a chain move that copies without destroying
 * its source, or destroys what it never moved, leaves it off zero
 * once every store is gone.
 */
struct StrLoc
{
    static inline std::int64_t live = 0;

    std::string text;

    StrLoc(std::uint64_t cookie = 0)
    {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016" PRIx64, cookie);
        text = std::string(24, '.') + hex;
        ++live;
    }
    StrLoc(const StrLoc &o) : text(o.text) { ++live; }
    StrLoc(StrLoc &&o) noexcept : text(std::move(o.text)) { ++live; }
    StrLoc &operator=(const StrLoc &) = default;
    StrLoc &operator=(StrLoc &&) noexcept = default;
    ~StrLoc() { --live; }

    bool operator==(const StrLoc &o) const { return text == o.text; }
};

std::uint64_t
cookieOf(const Loc &loc)
{
    return loc.cookie;
}

std::uint64_t
cookieOf(const StrLoc &loc)
{
    return std::stoull(loc.text.substr(24), nullptr, 16);
}

Version
v(Time ts, common::ClientId c = 1)
{
    return Version{ts, c};
}

/**
 * The reference side: a map of VersionChain, mirroring what the
 * backends did before the arena rewrite.
 */
template <typename L = Loc>
struct RefStore
{
    std::unordered_map<Key, ftl::VersionChain<L>> chains;

    ftl::VersionChain<L> &operator[](Key k) { return chains[k]; }
};

/** Dump one chain, a VersionChain or a (possibly falsy) ChainRef, as
 *  (version, cookie) pairs, youngest first. */
template <typename Chain>
std::vector<std::pair<Version, std::uint64_t>>
dump(const Chain &chain)
{
    std::vector<std::pair<Version, std::uint64_t>> out;
    if constexpr (requires { chain.entries(); }) {
        for (const auto &e : chain.entries())
            out.emplace_back(e.version, cookieOf(e.loc));
    } else if (chain) {
        for (const auto &e : chain)
            out.emplace_back(e.version, cookieOf(e.loc));
    }
    return out;
}

/**
 * Full-store comparison: every key in the reference must have an
 * identical chain in the store, and the store must not hold extras.
 */
template <typename L>
void
expectEquivalent(RefStore<L> &ref, ftl::VersionStore<L> &store)
{
    std::size_t ref_nonempty = 0;
    for (auto &[key, chain] : ref.chains) {
        if (chain.empty()) {
            EXPECT_FALSE(store.find(key))
                << "key " << key << " should be absent or empty";
            continue;
        }
        ++ref_nonempty;
        auto got = store.find(key);
        ASSERT_TRUE(got) << "key " << key << " missing from store";
        EXPECT_EQ(dump(chain), dump(got)) << "key " << key;
    }
    std::size_t store_nonempty = 0;
    store.forEach(
        [&](Key, auto chain) { store_nonempty += !chain.empty(); });
    EXPECT_EQ(ref_nonempty, store_nonempty);
}

} // namespace

// ------------------------------------------------- scenario replays
// The ftl_test chain scenarios, replayed against both implementations.

TEST(StoreSemantics, InsertKeepsDescendingOrder)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    const Key k = 7;
    // Out-of-order arrivals, as replication delivers them.
    for (Time ts : {300, 100, 500, 200, 400}) {
        const bool a = ref[k].insert(v(ts), Loc{unsigned(ts)});
        const bool b =
            store.getOrCreate(k).insert(v(ts), Loc{unsigned(ts)});
        EXPECT_EQ(a, b) << "ts " << ts;
    }
    expectEquivalent(ref, store);
    // Snapshot cuts agree.
    for (Time at : {50, 150, 250, 350, 450, 550}) {
        const auto *re = ref[k].findAt(v(at, 9));
        const auto *se = store.find(k).findAt(v(at, 9));
        ASSERT_EQ(re == nullptr, se == nullptr) << "at " << at;
        if (re) {
            EXPECT_EQ(re->loc, se->loc) << "at " << at;
        }
    }
}

TEST(StoreSemantics, DupReplayIgnoredOnBothPaths)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    EXPECT_TRUE(ref[4].insert(v(100), Loc{1}));
    EXPECT_TRUE(store.getOrCreate(4).insert(v(100), Loc{1}));
    // Same stamp, different payload: both must refuse it.
    EXPECT_FALSE(ref[4].insert(v(100), Loc{2}));
    EXPECT_FALSE(store.getOrCreate(4).insert(v(100), Loc{2}));
    // append() sees the duplicate too.
    EXPECT_FALSE(ref[4].append(v(100), Loc{3}));
    EXPECT_FALSE(store.find(4).append(v(100), Loc{3}));
    expectEquivalent(ref, store);
    EXPECT_EQ(store.versionCount(4), 1u);
    EXPECT_EQ(store.find(4).youngest().loc, (Loc{1}));
}

TEST(StoreSemantics, WatermarkPruneMatchesReference)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    const Key k = 2;
    for (int i = 1; i <= 6; ++i) {
        ref[k].insert(v(i * 100), Loc{unsigned(i)});
        store.getOrCreate(k).insert(v(i * 100), Loc{unsigned(i)});
    }
    // Section 3.1: keep the youngest version <= watermark plus all
    // younger ones; both sides must drop the same entries.
    std::vector<std::uint64_t> ref_drops, store_drops;
    ref[k].pruneBelowWatermark(
        450, [&](const auto &e) { ref_drops.push_back(e.loc.cookie); });
    store.find(k).pruneBelowWatermark(
        450, [&](const auto &e) { store_drops.push_back(e.loc.cookie); });
    EXPECT_EQ(ref_drops, store_drops);
    EXPECT_EQ(ref_drops, (std::vector<std::uint64_t>{3, 2, 1}));
    expectEquivalent(ref, store);

    // Watermark below every stamp: nothing more to drop.
    ref_drops.clear();
    store_drops.clear();
    ref[k].pruneBelowWatermark(
        1, [&](const auto &e) { ref_drops.push_back(e.loc.cookie); });
    store.find(k).pruneBelowWatermark(
        1, [&](const auto &e) { store_drops.push_back(e.loc.cookie); });
    EXPECT_TRUE(ref_drops.empty());
    EXPECT_TRUE(store_drops.empty());
    expectEquivalent(ref, store);
}

TEST(StoreSemantics, GcRelocateUpdatesLocator)
{
    RefStore ref;
    ftl::VersionStore<Loc> store;
    for (Time ts : {100, 200, 300}) {
        ref[5].insert(v(ts), Loc{unsigned(ts)});
        store.getOrCreate(5).insert(v(ts), Loc{unsigned(ts)});
    }
    // GC moved the v200 record to a new physical location; the FTLs'
    // publish loop rewrites the locator in place through find().
    ref[5].find(v(200))->loc = Loc{999};
    store.find(5).find(v(200))->loc = Loc{999};
    // A missing stamp has nothing to move on both.
    EXPECT_EQ(ref[5].find(v(250)), nullptr);
    EXPECT_EQ(store.find(5).find(v(250)), nullptr);
    EXPECT_EQ(store.find(5).find(v(200))->loc, (Loc{999}));
    expectEquivalent(ref, store);
}

TEST(StoreSemantics, BulkAppendEqualsInsert)
{
    // Loader discipline: versions arrive newest-first per key, so
    // append() must produce exactly what insert() would.
    RefStore ref;
    ftl::VersionStore<Loc> store(64);
    for (Key k = 0; k < 50; ++k) {
        for (int i = 8; i >= 1; --i) {
            ref[k].insert(v(i * 10, k % 3), Loc{k * 100 + unsigned(i)});
            store.getOrCreate(k).append(v(i * 10, k % 3),
                                        Loc{k * 100 + unsigned(i)});
        }
    }
    expectEquivalent(ref, store);
    // Out-of-order tail: append falls back to sorted insertion.
    ref[1].append(v(55), Loc{1});
    store.find(1).append(v(55), Loc{1});
    expectEquivalent(ref, store);
}

// ------------------------------------------------- randomized replay

namespace {

template <typename L>
void
replayRandomOpStream()
{
    std::mt19937_64 rng(20260808);
    RefStore<L> ref;
    ftl::VersionStore<L> store; // default capacity: exercises grow
    constexpr Key kKeys = 257;  // prime, off the pow2 grid
    std::uint64_t cookie = 0;
    for (int step = 0; step < 60000; ++step) {
        const Key key = rng() % kKeys;
        const Time ts = 1 + static_cast<Time>(rng() % 512);
        const auto op = rng() % 100;
        if (op < 45) {
            const bool a = ref[key].insert(v(ts), L{++cookie});
            const bool b =
                store.getOrCreate(key).insert(v(ts), L{cookie});
            ASSERT_EQ(a, b) << "step " << step;
        } else if (op < 60) {
            auto chain = store.find(key);
            const auto *re = ref[key].findAt(v(ts, 9));
            const auto *se = chain ? chain.findAt(v(ts, 9)) : nullptr;
            ASSERT_EQ(re == nullptr, se == nullptr) << "step " << step;
            if (re) {
                ASSERT_EQ(re->loc, se->loc) << "step " << step;
            }
        } else if (op < 75) {
            // GC moves a live version: its locator is rewritten in
            // place.
            auto *a = ref[key].find(v(ts));
            auto chain = store.find(key);
            auto *b = chain ? chain.find(v(ts)) : nullptr;
            ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
            if (a != nullptr) {
                a->loc = L{++cookie};
                b->loc = L{cookie};
            }
        } else if (op < 90) {
            std::uint64_t a_drops = 0, b_drops = 0;
            ref[key].pruneBelowWatermark(
                ts, [&](const auto &) { ++a_drops; });
            if (auto chain = store.find(key))
                chain.pruneBelowWatermark(
                    ts, [&](const auto &) { ++b_drops; });
            ASSERT_EQ(a_drops, b_drops) << "step " << step;
        } else {
            const bool a = ref[key].contains(v(ts));
            auto chain = store.find(key);
            const bool b = chain ? chain.contains(v(ts)) : false;
            ASSERT_EQ(a, b) << "step " << step;
        }
        if (step % 7919 == 0)
            expectEquivalent(ref, store);
    }
    expectEquivalent(ref, store);
}

} // namespace

TEST(StoreSemantics, RandomizedOpStreamEquivalence)
{
    replayRandomOpStream<Loc>();
    replayRandomOpStream<StrLoc>();
    EXPECT_EQ(StrLoc::live, 0) << "a chain move lost or duplicated one";
}

// ------------------------------------------- multi-version index

namespace {

using Store = ftl::VersionStore<Loc>;

/**
 * The index must equal the set of keys whose chain holds >= 2
 * versions, each listed once. Returns "" when it does, else what
 * differs.
 */
template <typename L>
std::string
indexMismatch(ftl::VersionStore<L> &store)
{
    std::set<Key> want;
    store.forEach([&](Key key, auto chain) {
        if (chain.size() >= 2)
            want.insert(key);
    });
    std::vector<Key> got;
    store.forEachMultiVersion([&](Key key, auto) { got.push_back(key); });
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end())
        return "index lists a key twice";
    if (got.size() != store.multiVersionCount())
        return "multiVersionCount disagrees with the visit count";
    if (std::vector<Key>(want.begin(), want.end()) != got)
        return "index holds " + std::to_string(got.size()) +
               " keys, forEach finds " + std::to_string(want.size()) +
               " multi-version chains";
    return "";
}

/** Every key's chain as (version, cookie) pairs, keyed by key. */
template <typename L>
std::map<Key, std::vector<std::pair<Version, std::uint64_t>>>
contents(ftl::VersionStore<L> &store)
{
    std::map<Key, std::vector<std::pair<Version, std::uint64_t>>> out;
    store.forEach([&](Key key, auto chain) { out[key] = dump(chain); });
    return out;
}

/**
 * `store` sweeps through its multi-version index; `twin` receives the
 * same ops but sweeps with forEach over every slot. Both must drop the
 * same entries and end with the same contents, and the index must be
 * exact after every single step.
 */
template <typename L>
void
replayIndexedAgainstFullSweeps()
{
    std::mt19937_64 rng(20261016);
    ftl::VersionStore<L> store; // default capacity: exercises grow
    ftl::VersionStore<L> twin(512);
    constexpr Key kKeys = 181;
    std::uint64_t cookie = 0;
    Time watermark = 0;
    for (int step = 0; step < 30000; ++step) {
        const Key key = rng() % kKeys;
        const Time ts = watermark + static_cast<Time>(rng() % 64);
        const auto op = rng() % 1000;
        if (op < 350) {
            ++cookie;
            ASSERT_EQ(store.getOrCreate(key).insert(v(ts), L{cookie}),
                      twin.getOrCreate(key).insert(v(ts), L{cookie}))
                << "step " << step;
        } else if (op < 550) {
            ++cookie;
            ASSERT_EQ(store.getOrCreate(key).append(v(ts), L{cookie}),
                      twin.getOrCreate(key).append(v(ts), L{cookie}))
                << "step " << step;
        } else if (op < 700) {
            // Prune-on-access, as a backend get or put does.
            std::uint64_t a = 0, b = 0;
            if (auto chain = store.find(key))
                chain.pruneBelowWatermark(
                    watermark, [&](const auto &) { ++a; });
            if (auto chain = twin.find(key))
                chain.pruneBelowWatermark(
                    watermark, [&](const auto &) { ++b; });
            ASSERT_EQ(a, b) << "step " << step;
        } else if (op < 800) {
            // A GC move: the locator is rewritten in place.
            auto chain = store.find(key);
            auto other = twin.find(key);
            auto *a = chain ? chain.find(v(ts)) : nullptr;
            auto *b = other ? other.find(v(ts)) : nullptr;
            ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
            if (a != nullptr) {
                a->loc = L{++cookie};
                b->loc = L{cookie};
            }
        } else if (op < 990) {
            // Watermark advance and sweep: indexed vs full table.
            watermark += static_cast<Time>(rng() % 24);
            std::multiset<std::pair<Version, std::uint64_t>> a, b;
            store.pruneMultiVersion(watermark, [&](const auto &e) {
                a.emplace(e.version, cookieOf(e.loc));
            });
            twin.forEach([&](Key, auto chain) {
                chain.pruneBelowWatermark(watermark, [&](const auto &e) {
                    b.emplace(e.version, cookieOf(e.loc));
                });
            });
            ASSERT_EQ(a, b) << "step " << step;
            ASSERT_EQ(contents(store), contents(twin))
                << "step " << step;
            // Nothing below the watermark is left to drop.
            std::size_t again = 0;
            store.pruneMultiVersion(watermark,
                                    [&](const auto &) { ++again; });
            ASSERT_EQ(again, 0u) << "step " << step;
        } else if (op < 995) {
            // Growth: rehash moves every slot and its index cell.
            const std::uint64_t keys = rng() % 700;
            store.reserveKeys(keys);
            twin.reserveKeys(keys);
        } else {
            store.clear();
            twin.clear();
        }
        ASSERT_EQ(indexMismatch(store), "") << "step " << step;
        ASSERT_EQ(indexMismatch(twin), "") << "step " << step;
    }
    EXPECT_EQ(contents(store), contents(twin));
}

} // namespace

TEST(StoreSemantics, MultiVersionIndexExactUnderRandomOps)
{
    replayIndexedAgainstFullSweeps<Loc>();
    replayIndexedAgainstFullSweeps<StrLoc>();
    EXPECT_EQ(StrLoc::live, 0) << "a chain move lost or duplicated one";
}

TEST(StoreSemantics, MultiVersionIndexSurvivesPruneChurnAndGrowth)
{
    // Robin-hood displacement and growth move slots under the index,
    // and pruning demotes chains out of it; every move must carry its
    // index cell along.
    std::mt19937_64 rng(11);
    Store store;
    for (int wave = 0; wave < 30; ++wave) {
        for (int i = 0; i < 400; ++i) {
            const Key key = rng() % 1500;
            auto chain = store.getOrCreate(key);
            chain.insert(v(wave * 10 + 1), Loc{key});
            if (rng() % 2)
                chain.insert(v(wave * 10 + 2), Loc{key});
        }
        // Prune-on-access at a watermark above this wave's stamps
        // leaves one version.
        for (int i = 0; i < 300; ++i)
            if (auto chain = store.find(rng() % 1500))
                chain.pruneBelowWatermark(wave * 10 + 5,
                                          [](const auto &) {});
        ASSERT_EQ(indexMismatch(store), "") << "wave " << wave;
    }
    EXPECT_GT(store.multiVersionCount(), 0u);
    // A sweep above every stamp leaves only 1-version chains.
    store.pruneMultiVersion(1 << 20, [](const auto &) {});
    EXPECT_EQ(store.multiVersionCount(), 0u);
    EXPECT_EQ(indexMismatch(store), "");
}

// --------------------------------------------- capacity independence

TEST(StoreSemantics, ContentsIndependentOfInitialCapacity)
{
    // The same stream into tables pre-sized 0 / exact / oversized must
    // produce identical contents and identical lookup results.
    auto load = [](ftl::VersionStore<Loc> &store) {
        std::mt19937_64 rng(42);
        for (int i = 0; i < 20000; ++i) {
            const Key key = rng() % 4096;
            const Time ts = 1 + static_cast<Time>(rng() % 64);
            store.getOrCreate(key).insert(v(ts), Loc{key * 1000 + ts});
            if (i % 5 == 0)
                if (auto c = store.find(rng() % 4096))
                    c.pruneBelowWatermark(8, [](const auto &) {});
        }
    };
    ftl::VersionStore<Loc> tiny;
    ftl::VersionStore<Loc> exact(4096);
    ftl::VersionStore<Loc> huge(1u << 16);
    load(tiny);
    load(exact);
    load(huge);
    ASSERT_EQ(tiny.size(), exact.size());
    ASSERT_EQ(tiny.size(), huge.size());
    EXPECT_LT(exact.capacity(), huge.capacity());
    for (Key key = 0; key < 4096; ++key) {
        EXPECT_EQ(dump(tiny.find(key)), dump(exact.find(key)))
            << "key " << key;
        EXPECT_EQ(dump(tiny.find(key)), dump(huge.find(key)))
            << "key " << key;
    }
}

TEST(StoreSemantics, ReserveKeysNeverShrinksOrLosesData)
{
    ftl::VersionStore<Loc> store;
    for (Key k = 0; k < 1000; ++k)
        store.getOrCreate(k).insert(v(10), Loc{k});
    const std::size_t cap = store.capacity();
    store.reserveKeys(10); // smaller: no-op
    EXPECT_EQ(store.capacity(), cap);
    store.reserveKeys(100000); // bigger: rehash keeps every chain
    EXPECT_GT(store.capacity(), cap);
    for (Key k = 0; k < 1000; ++k) {
        ASSERT_TRUE(store.find(k)) << "key " << k;
        EXPECT_EQ(store.find(k).youngest().loc, (Loc{k}));
    }
}

TEST(StoreSemantics, ClearRetainsCapacityDropsContents)
{
    ftl::VersionStore<Loc> store(1000);
    for (Key k = 0; k < 1000; ++k)
        for (Time ts = 1; ts <= 4; ++ts)
            store.getOrCreate(k).insert(v(ts * 10), Loc{k});
    const std::size_t cap = store.capacity();
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.capacity(), cap);
    for (Key k = 0; k < 1000; ++k)
        ASSERT_FALSE(store.find(k));
    // Reusable after clear.
    store.getOrCreate(3).insert(v(5), Loc{3});
    EXPECT_EQ(store.versionCount(3), 1u);
}

// -------------------------------------------------------- KeyTable

namespace {

/** A KeyTable slot with a two-word payload. */
struct TestSlot
{
    Key key;
    std::uint32_t dist;
    std::uint32_t small;
    std::uint64_t big;
};

struct TestPayload
{
    std::uint32_t small;
    std::uint64_t big;
};

using TestTable = common::KeyTable<TestSlot>;

/** Every key of @p universe is present in @p table iff it is in
 *  @p ref, with the same payload. */
void
expectSameContents(const TestTable &table,
                   const std::unordered_map<Key, TestPayload> &ref,
                   const std::vector<Key> &universe)
{
    ASSERT_EQ(table.size(), ref.size());
    for (const Key key : universe) {
        const TestSlot *slot = table.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(slot != nullptr, it != ref.end()) << "key " << key;
        if (slot == nullptr)
            continue;
        ASSERT_EQ(slot->key, key);
        ASSERT_EQ(slot->small, it->second.small) << "key " << key;
        ASSERT_EQ(slot->big, it->second.big) << "key " << key;
    }
}

} // namespace

TEST(KeyTable, RandomOpsMatchUnorderedMapReference)
{
    // Half the universe is dense small keys, half sparse keys with
    // equal low bits: both shapes must probe, shift and erase right.
    std::vector<Key> universe;
    for (Key k = 0; k < 1500; ++k)
        universe.push_back(k);
    for (Key k = 1; k <= 1500; ++k)
        universe.push_back(k << 32);

    std::mt19937_64 rng(15);
    TestTable table; // unreserved: starts empty and grows
    std::unordered_map<Key, TestPayload> ref;
    std::size_t grows = 0;
    for (int step = 0; step < 60000; ++step) {
        const Key key = universe[rng() % universe.size()];
        const unsigned op = static_cast<unsigned>(rng() % 100);
        const std::size_t cap_before = table.capacity();
        if (op < 55) {
            TestSlot &slot = table.getOrCreate(key);
            const auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_EQ(slot.small, 0u) << "step " << step;
                ASSERT_EQ(slot.big, 0u) << "step " << step;
            } else {
                ASSERT_EQ(slot.small, it->second.small) << "step " << step;
                ASSERT_EQ(slot.big, it->second.big) << "step " << step;
            }
            slot.small = static_cast<std::uint32_t>(rng());
            slot.big = rng();
            ref[key] = TestPayload{slot.small, slot.big};
        } else if (op < 90) {
            ASSERT_EQ(table.erase(key), ref.erase(key) > 0)
                << "step " << step;
        } else if (op < 98) {
            const TestSlot *slot = table.find(key);
            ASSERT_EQ(slot != nullptr, ref.count(key) > 0)
                << "step " << step;
        } else if (op < 99) {
            table.reserve(rng() % 8000);
        } else if (rng() % 20 == 0) {
            table.clear();
            ref.clear();
            ASSERT_EQ(table.capacity(), cap_before); // clear keeps it
        }
        if (table.capacity() > cap_before)
            ++grows;
        // Load stays at or under 7/8, capacity a power of two >= 16.
        ASSERT_LE(table.size() * 8, table.capacity() * 7);
        ASSERT_EQ(table.capacity() & (table.capacity() - 1), 0u);
        ASSERT_EQ(table.memoryBytes(),
                  table.capacity() * sizeof(TestSlot));
        if (step % 5000 == 0)
            expectSameContents(table, ref, universe);
    }
    expectSameContents(table, ref, universe);
    EXPECT_GE(grows, 3u);
}

TEST(KeyTable, MemoryBytesIsTheSlotArray)
{
    TestTable table;
    EXPECT_EQ(table.memoryBytes(), 0u);
    EXPECT_EQ(table.find(7), nullptr);
    EXPECT_FALSE(table.erase(7));

    // First insert allocates the 16-slot minimum; the 15th key pushes
    // the load past 7/8 and doubles it.
    for (Key k = 0; k < 14; ++k)
        table.getOrCreate(k);
    EXPECT_EQ(table.capacity(), 16u);
    EXPECT_EQ(table.memoryBytes(), 16 * sizeof(TestSlot));
    table.getOrCreate(14);
    EXPECT_EQ(table.capacity(), 32u);
    EXPECT_EQ(table.memoryBytes(), 32 * sizeof(TestSlot));

    // reserve(n) sizes for n keys under 7/8 load and never shrinks.
    table.reserve(1000); // 1000 + 1000/7 + 1 = 1143 -> 2048
    EXPECT_EQ(table.capacity(), 2048u);
    EXPECT_EQ(table.memoryBytes(), 2048 * sizeof(TestSlot));
    table.reserve(10);
    EXPECT_EQ(table.capacity(), 2048u);
    for (Key k = 0; k < 15; ++k)
        ASSERT_NE(table.find(k), nullptr) << "key " << k;

    // Reserved keys insert with no growth; clear keeps the array.
    for (Key k = 0; k < 1000; ++k)
        table.getOrCreate(k * 0x9E3779B9ull);
    EXPECT_EQ(table.capacity(), 2048u);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.memoryBytes(), 2048 * sizeof(TestSlot));
}

// ------------------------------------------ huge-page slot arrays

namespace {

using common::table_detail::kHugePage;

/**
 * The THPeligible field of the /proc/self/smaps mapping holding
 * @p addr: 1 or 0, or -1 when the mapping or the field is absent.
 */
int
thpEligible(const void *addr)
{
    const auto at = reinterpret_cast<std::uintptr_t>(addr);
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool inside = false;
    while (std::getline(smaps, line)) {
        unsigned long lo = 0;
        unsigned long hi = 0;
        char dash = 0;
        std::istringstream head(line);
        if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
            inside = lo <= at && at < hi;
            continue;
        }
        if (inside && line.rfind("THPeligible:", 0) == 0)
            return std::stoi(line.substr(12));
    }
    return -1;
}

/** True when this kernel can put no memory on transparent huge pages. */
bool
thpOff()
{
    std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string modes;
    return !std::getline(f, modes) ||
           modes.find("[never]") != std::string::npos;
}

/** Skips the test unless @p addr's mapping reads THPeligible: 1. */
#define EXPECT_ON_HUGE_PAGES(addr)                                     \
    do {                                                               \
        if (thpOff())                                                  \
            GTEST_SKIP() << "transparent huge pages are off";          \
        const int eligible = thpEligible(addr);                        \
        if (eligible < 0)                                              \
            GTEST_SKIP() << "smaps has no THPeligible field";          \
        EXPECT_EQ(eligible, 1);                                        \
    } while (0)

/** A key spread over the whole hash range. */
Key
scatter(std::uint64_t i)
{
    return (i + 1) * 0xD6E8FEB86659FD93ull;
}

/** The slot array behind @p slot: its index is its home bucket plus
 *  its probe distance. */
const char *
slotArrayOf(const TestTable &table, const TestSlot &slot)
{
    const std::uint32_t shift = static_cast<std::uint32_t>(
        64 - std::countr_zero(table.capacity()));
    const std::size_t home =
        common::table_detail::mixKey(slot.key) >> shift;
    const std::size_t index =
        (home + slot.dist - 1) & (table.capacity() - 1);
    return reinterpret_cast<const char *>(&slot) -
           index * sizeof(TestSlot);
}

} // namespace

TEST(SlotArray, LargeArraysStartOnAHugePageAndSmallOnesStayPlain)
{
    for (const std::size_t bytes :
         {std::size_t{4096}, kHugePage - 8, kHugePage, 3 * kHugePage + 24}) {
        auto *p = static_cast<unsigned char *>(
            common::table_detail::allocSlotArray(bytes));
        EXPECT_TRUE(std::all_of(p, p + bytes,
                                [](unsigned char b) { return b == 0; }))
            << bytes;
        if (bytes >= kHugePage) {
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePage, 0u)
                << bytes;
        }
        std::memset(p, 0xab, bytes); // the whole array is writable
        common::table_detail::freeSlotArray(p, bytes);
    }
    common::table_detail::freeSlotArray(nullptr, 3 * kHugePage);
}

TEST(KeyTable, GrowsAcrossTheHugePageLineLikeAReference)
{
    TestTable table;
    std::unordered_map<Key, TestPayload> ref;
    std::vector<Key> keys;
    std::size_t huge_rehashes = 0;
    // 24-byte slots: 65,536 of them are 1.5 MiB, 131,072 are 3 MiB
    // and 262,144 are 6 MiB, so this grows across 2 MiB and past it.
    for (std::uint64_t i = 0; i < 120'000; ++i) {
        const std::size_t cap_before = table.capacity();
        const Key key = scatter(i);
        TestSlot &slot = table.getOrCreate(key);
        slot.small = static_cast<std::uint32_t>(i);
        slot.big = ~i;
        ref[key] = TestPayload{slot.small, slot.big};
        keys.push_back(key);
        if (table.capacity() == cap_before)
            continue;
        expectSameContents(table, ref, keys);
        if (table.memoryBytes() < kHugePage)
            continue;
        ++huge_rehashes;
        const auto base = reinterpret_cast<std::uintptr_t>(
            slotArrayOf(table, *table.find(key)));
        EXPECT_EQ(base % kHugePage, 0u) << "capacity " << table.capacity();
        // Every slot agrees on where the array starts.
        EXPECT_EQ(slotArrayOf(table, *table.find(keys.front())),
                  reinterpret_cast<const char *>(base));
    }
    expectSameContents(table, ref, keys);
    EXPECT_EQ(huge_rehashes, 2u);
    EXPECT_EQ(table.memoryBytes(), 262'144 * sizeof(TestSlot));
    EXPECT_ON_HUGE_PAGES(slotArrayOf(table, *table.find(keys.front())));
}

TEST(VersionStore, GrowsAcrossTheHugePageLineLikeAReference)
{
    Store store;
    RefStore ref;
    std::size_t huge_rehashes = 0;
    // Every fifth key holds two versions, so arena chains move through
    // each rehash too.
    for (std::uint64_t i = 0; i < 70'000; ++i) {
        const std::size_t cap_before = store.capacity();
        const Key key = scatter(i);
        store.getOrCreate(key).insert(v(10), Loc{i});
        ref[key].insert(v(10), Loc{i});
        if (i % 5 == 0) {
            store.getOrCreate(key).insert(v(20), Loc{~i});
            ref[key].insert(v(20), Loc{~i});
        }
        if (store.capacity() == cap_before)
            continue;
        expectEquivalent(ref, store);
        ASSERT_EQ(indexMismatch(store), "");
        if (store.memoryBytes() >= kHugePage)
            ++huge_rehashes;
    }
    expectEquivalent(ref, store);
    EXPECT_GE(huge_rehashes, 2u);
    // forEach visits slots in array order: the first chain it meets
    // sits in the array's first huge page.
    const void *first = nullptr;
    store.forEach([&](Key, Store::ChainRef chain) {
        if (first == nullptr && chain.size() == 1)
            first = &chain.youngest();
    });
    EXPECT_ON_HUGE_PAGES(first);
}
