/**
 * @file
 * Tests for the storage backends: MFTL, VFTL, SFTL/SingleVersionKv and
 * DRAM. Cover round-trips, snapshot reads, packing behaviour,
 * watermark pruning, garbage collection under space pressure,
 * idempotent replays, and recovery scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "ftl/free_blocks.hh"
#include "ftl/mftl.hh"
#include "ftl/sftl.hh"
#include "ftl/space_collector.hh"
#include "ftl/vftl.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace ftl;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::Version;

namespace {

flash::Geometry
smallGeometry(std::uint32_t blocks = 64)
{
    flash::Geometry g;
    g.numBlocks = blocks;
    g.pagesPerBlock = 8;
    g.numChannels = 4;
    g.queueDepth = 16;
    return g;
}

/** Drive a coroutine to completion on a fresh simulator. */
template <typename Fn>
void
runSim(sim::Simulator &s, Fn &&fn)
{
    sim::spawn(fn());
    s.run();
}

Version
v(common::Time ts, common::ClientId c = 1)
{
    return Version{ts, c};
}

} // namespace

// ---------------------------------------------------------------- MFTL

struct MftlFixture
{
    sim::Simulator s;
    flash::SsdDevice ssd;
    Mftl mftl;

    explicit MftlFixture(std::uint32_t blocks = 64,
                         Mftl::Config cfg = Mftl::Config{})
        : ssd(s, smallGeometry(blocks)), mftl(s, ssd, cfg)
    {
    }
};

TEST(Mftl, PutGetRoundTrip)
{
    MftlFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        auto st = co_await f.mftl.put(7, "hello", v(100));
        EXPECT_EQ(st, PutStatus::Ok);
        got = co_await f.mftl.get(7, v(100));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "hello");
    EXPECT_EQ(got.version, v(100));
}

TEST(Mftl, MissingKeyIsMiss)
{
    MftlFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        got = co_await f.mftl.get(999, v(100));
    });
    EXPECT_FALSE(got.found);
}

TEST(Mftl, SnapshotReadsPickVersionAtOrBelow)
{
    MftlFixture f;
    GetResult at150, at250, at99;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(1, "v100", v(100));
        co_await f.mftl.put(1, "v200", v(200));
        co_await f.mftl.put(1, "v300", v(300));
        at150 = co_await f.mftl.get(1, v(150));
        at250 = co_await f.mftl.get(1, v(250));
        at99 = co_await f.mftl.get(1, v(99));
    });
    EXPECT_EQ(at150.value, "v100");
    EXPECT_EQ(at250.value, "v200");
    EXPECT_FALSE(at99.found); // older than the oldest version
}

TEST(Mftl, VersionsAccumulate)
{
    MftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int i = 1; i <= 5; ++i)
            co_await f.mftl.put(3, "x", v(i * 100));
    });
    EXPECT_EQ(f.mftl.versionCount(3), 5u);
}

TEST(Mftl, OutOfOrderInsertsKeepChainsSorted)
{
    MftlFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(5, "late", v(300));
        co_await f.mftl.put(5, "early", v(100)); // arrives late
        got = co_await f.mftl.get(5, v(200));
    });
    EXPECT_EQ(got.value, "early");
}

TEST(Mftl, IdempotentReplayIgnored)
{
    MftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(4, "a", v(100));
        co_await f.mftl.put(4, "a", v(100)); // replay, same stamp
    });
    EXPECT_EQ(f.mftl.versionCount(4), 1u);
}

TEST(Mftl, PackTimerBoundsPutLatency)
{
    // A lone put cannot fill a page; it must flush at the pack timeout.
    Mftl::Config cfg;
    cfg.packTimeout = kMillisecond;
    MftlFixture f(64, cfg);
    common::Time done = 0;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(1, "x", v(10));
        done = f.s.now();
    });
    // pack wait (1 ms) + program (100 us).
    EXPECT_GE(done, kMillisecond);
    EXPECT_LE(done, kMillisecond + 300 * kMicrosecond);
}

TEST(Mftl, FullPageFlushesImmediately)
{
    // 8 puts of 512 B fill a 4 KB page; no pack wait for the batch.
    MftlFixture f;
    common::Time done = 0;
    runSim(f.s, [&]() -> sim::Task<void> {
        std::vector<sim::Task<PutStatus>> noop;
        for (int i = 0; i < 8; ++i)
            sim::spawn([&, i]() -> sim::Task<void> {
                (void)co_await f.mftl.put(static_cast<Key>(i), "x", v(10 + i));
            }());
        co_await sim::sleepFor(f.s, 150 * kMicrosecond);
        done = f.s.now();
        GetResult g0 = co_await f.mftl.get(0, v(1000));
        EXPECT_TRUE(g0.found);
    });
    EXPECT_LT(done, kMillisecond); // did not wait for the pack timer
}

TEST(Mftl, WatermarkPrunesOldVersions)
{
    MftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int i = 1; i <= 6; ++i)
            co_await f.mftl.put(2, "x", v(i * 100));
        // Watermark at 450: keep v400 (youngest <= 450), v500, v600.
        f.mftl.setWatermark(450);
        (void)co_await f.mftl.get(2, v(10000)); // triggers lazy prune
    });
    EXPECT_EQ(f.mftl.versionCount(2), 3u);
}

TEST(Mftl, WatermarkKeepsSnapshotReadable)
{
    MftlFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(2, "old", v(100));
        co_await f.mftl.put(2, "new", v(500));
        f.mftl.setWatermark(300);
        // A transaction with begin timestamp 300 must still read "old".
        got = co_await f.mftl.get(2, v(300));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "old");
}

TEST(Mftl, GcReclaimsSpaceUnderOverwrites)
{
    // 32 blocks x 8 pages x 8 tuples = 2048 tuple slots. Writing 200
    // keys 40 times each = 8000 tuples forces several GC passes; the
    // watermark advances so old versions die.
    MftlFixture f(32);
    f.mftl.start();
    bool all_ok = true;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 40; ++round) {
            for (Key k = 0; k < 200; ++k) {
                auto st = co_await f.mftl.put(
                    k, "r" + std::to_string(round),
                    v(round * 1000 + static_cast<int>(k) + 1));
                all_ok &= (st == PutStatus::Ok);
            }
            f.mftl.setWatermark(round * 1000);
        }
        // Everything still readable at the latest version.
        for (Key k = 0; k < 200; ++k) {
            auto g = co_await f.mftl.getLatest(k);
            all_ok &= g.found && g.value == "r39";
        }
        f.s.requestStop();
    });
    EXPECT_TRUE(all_ok);
    EXPECT_GT(f.mftl.stats().counterValue("mftl.gc_erases"), 0u);
    EXPECT_GT(f.ssd.stats().counterValue("ssd.erases"), 0u);
}

TEST(Mftl, WearLevelingKeepsSpreadSmall)
{
    MftlFixture f(32);
    f.mftl.start();
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 60; ++round) {
            for (Key k = 0; k < 100; ++k)
                co_await f.mftl.put(
                    k, "x", v(round * 1000 + static_cast<int>(k) + 1));
            f.mftl.setWatermark(round * 1000);
        }
        f.s.requestStop();
    });
    // Greedy+wear-aware victim selection should keep erase counts
    // within a modest band.
    EXPECT_GT(f.ssd.stats().counterValue("ssd.erases"), 20u);
    EXPECT_LE(f.ssd.wearSpread(), 12u);
}

TEST(Mftl, RebuildFromFlashRecoversMappings)
{
    MftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(1, "a", v(100));
        co_await f.mftl.put(1, "b", v(200));
        co_await f.mftl.put(2, "c", v(150));
    });
    const std::size_t recovered = f.mftl.rebuild();
    EXPECT_GE(recovered, 3u);
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        got = co_await f.mftl.get(1, v(150));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "a");
}

namespace {

/**
 * Versions the watermark contract keeps out of a chain whose stamps
 * are @p stamps: every stamp above the watermark, plus the youngest
 * at or below it.
 */
std::size_t
keptByWatermark(const std::vector<common::Time> &stamps,
                common::Time watermark)
{
    std::size_t above = 0;
    bool any_at_or_below = false;
    for (const common::Time ts : stamps) {
        if (ts > watermark)
            ++above;
        else
            any_at_or_below = true;
    }
    return above + (any_at_or_below ? 1 : 0);
}

/** Let the background watermark sweep run twice, then stop. */
template <typename Fixture>
void
runSweeps(Fixture &f)
{
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await sim::sleepFor(f.s, 120 * kMillisecond);
        f.s.requestStop();
    });
}

} // namespace

TEST(Mftl, SweepAfterRebuildPrunesEveryChainToWatermark)
{
    // Rebuild re-inserts every chain (and so re-indexes the
    // multi-version ones); the background sweep alone — no get or
    // put touches these keys afterwards — must then prune each chain
    // to the watermark contract.
    MftlFixture f;
    std::vector<std::vector<common::Time>> stamps(40);
    runSim(f.s, [&]() -> sim::Task<void> {
        for (Key k = 0; k < stamps.size(); ++k) {
            for (std::size_t i = 0; i <= k % 6; ++i) {
                const common::Time ts =
                    100 * static_cast<common::Time>(i + 1) +
                    static_cast<common::Time>(k);
                stamps[k].push_back(ts);
                co_await f.mftl.put(k, "x", v(ts));
            }
        }
    });
    f.mftl.rebuild();
    for (Key k = 0; k < stamps.size(); ++k)
        ASSERT_EQ(f.mftl.versionCount(k), stamps[k].size()) << k;

    const common::Time watermark = 320;
    f.mftl.start();
    f.mftl.setWatermark(watermark);
    runSweeps(f);
    std::uint64_t dropped = 0;
    for (Key k = 0; k < stamps.size(); ++k) {
        const std::size_t kept = keptByWatermark(stamps[k], watermark);
        EXPECT_EQ(f.mftl.versionCount(k), kept) << "key " << k;
        dropped += stamps[k].size() - kept;
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(f.mftl.stats().counterValue("mftl.versions_pruned"),
              dropped);
}

TEST(Mftl, SweepAfterDemotionAndReputPrunesToWatermark)
{
    // A read's prune demotes a multi-version chain (and drops its
    // index entry); re-putting the key builds a fresh multi-version
    // chain the sweep must still find. Key 10 stays multi-version
    // throughout, so the demotion exercises the index's swap-remove.
    MftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.mftl.put(9, "a", v(100));
        co_await f.mftl.put(10, "p", v(100));
        co_await f.mftl.put(9, "b", v(200));
        co_await f.mftl.put(10, "q", v(200));
        co_await f.mftl.put(10, "r", v(300));
        f.mftl.setWatermark(250);
        (void)co_await f.mftl.get(9, v(1000)); // prunes key 9 to v200
        co_await f.mftl.put(9, "c", v(300));
        co_await f.mftl.put(9, "d", v(400));
    });
    ASSERT_EQ(f.mftl.versionCount(9), 3u);
    ASSERT_EQ(f.mftl.versionCount(10), 3u);
    const std::uint64_t pruned =
        f.mftl.stats().counterValue("mftl.versions_pruned");

    f.mftl.start();
    f.mftl.setWatermark(350);
    runSweeps(f);
    // Key 9 keeps v300 (youngest <= 350) and v400; key 10 keeps v300.
    EXPECT_EQ(f.mftl.versionCount(9), 2u);
    EXPECT_EQ(f.mftl.versionCount(10), 1u);
    EXPECT_EQ(f.mftl.stats().counterValue("mftl.versions_pruned"),
              pruned + 3);
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        got = co_await f.mftl.get(9, v(350));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "c");
}

// ---------------------------------------------------------------- SFTL

struct SftlFixture
{
    sim::Simulator s;
    flash::SsdDevice ssd;
    Sftl sftl;

    explicit SftlFixture(std::uint32_t blocks = 64)
        : ssd(s, smallGeometry(blocks)), sftl(s, ssd)
    {
    }
};

TEST(Sftl, LogicalSpaceIsNinetyPercent)
{
    SftlFixture f;
    const auto total = f.ssd.geometry().totalPages();
    EXPECT_EQ(f.sftl.logicalBlocks(),
              static_cast<std::uint64_t>(total * 0.9));
}

TEST(Sftl, WriteReadRoundTrip)
{
    SftlFixture f;
    std::optional<flash::PageData> got;
    runSim(f.s, [&]() -> sim::Task<void> {
        flash::PageData d;
        flash::Record r;
        r.key = 11;
        r.value = "data";
        d.records.push_back(r);
        co_await f.sftl.write(5, std::move(d));
        got = co_await f.sftl.read(5);
    });
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->records[0].key, 11u);
}

TEST(Sftl, UnwrittenLbaReadsEmpty)
{
    SftlFixture f;
    std::optional<flash::PageData> got;
    runSim(f.s, [&]() -> sim::Task<void> {
        got = co_await f.sftl.read(17);
    });
    EXPECT_FALSE(got.has_value());
}

TEST(Sftl, OverwriteRemapsAndInvalidatesOld)
{
    SftlFixture f;
    std::optional<flash::PageData> got;
    runSim(f.s, [&]() -> sim::Task<void> {
        flash::PageData d1, d2;
        flash::Record r;
        r.key = 1;
        r.value = "one";
        d1.records.push_back(r);
        r.value = "two";
        d2.records.push_back(r);
        co_await f.sftl.write(3, std::move(d1));
        co_await f.sftl.write(3, std::move(d2));
        got = co_await f.sftl.read(3);
    });
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->records[0].value, "two");
}

TEST(Sftl, TrimUnmaps)
{
    SftlFixture f;
    std::optional<flash::PageData> got;
    runSim(f.s, [&]() -> sim::Task<void> {
        flash::PageData d;
        d.records.push_back(flash::Record{});
        co_await f.sftl.write(2, std::move(d));
        co_await f.sftl.trim(2);
        got = co_await f.sftl.read(2);
    });
    EXPECT_FALSE(got.has_value());
    EXPECT_FALSE(f.sftl.mapped(2));
}

TEST(Sftl, GcReclaimsInvalidPages)
{
    SftlFixture f(16); // 16 blocks x 8 pages = 128 phys pages, 115 LBAs
    bool all_ok = true;
    runSim(f.s, [&]() -> sim::Task<void> {
        // Repeatedly overwrite a small LBA set; the log wraps several
        // times and GC must reclaim the dead pages.
        for (int round = 0; round < 40; ++round) {
            for (Lba lba = 0; lba < 20; ++lba) {
                flash::PageData d;
                flash::Record r;
                r.key = static_cast<Key>(lba);
                r.value = std::to_string(round);
                d.records.push_back(r);
                auto st = co_await f.sftl.write(lba, std::move(d));
                all_ok &= (st == PutStatus::Ok);
            }
        }
        for (Lba lba = 0; lba < 20; ++lba) {
            auto g = co_await f.sftl.read(lba);
            all_ok &= g.has_value() && g->records[0].value == "39";
        }
        f.s.requestStop();
    });
    EXPECT_TRUE(all_ok);
    EXPECT_GT(f.sftl.stats().counterValue("sftl.gc_erases"), 0u);
}

// ---------------------------------------------------- SingleVersionKv

struct SvkvFixture
{
    sim::Simulator s;
    flash::SsdDevice ssd;
    Sftl sftl;
    SingleVersionKv kv;

    static SingleVersionKv::Config
    cfg()
    {
        SingleVersionKv::Config c;
        c.capacityKeys = 1000;
        return c;
    }

    SvkvFixture()
        : ssd(s, smallGeometry(64)), sftl(s, ssd),
          kv(s, sftl, cfg())
    {
    }
};

TEST(SingleVersionKv, RoundTrip)
{
    SvkvFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.kv.put(42, "val", v(100));
        got = co_await f.kv.get(42, v(100));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "val");
}

TEST(SingleVersionKv, IgnoresSnapshotBound)
{
    // Single-version storage returns the current version even when the
    // reader asked for an older snapshot — the caller detects this by
    // the returned stamp (Figure 6's abort mechanism).
    SvkvFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.kv.put(1, "new", v(500));
        got = co_await f.kv.get(1, v(100));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.version, v(500)); // newer than the requested bound
}

TEST(SingleVersionKv, StaleWriteRejected)
{
    SvkvFixture f;
    PutStatus st{};
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.kv.put(1, "newer", v(500));
        st = co_await f.kv.put(1, "older", v(400));
    });
    EXPECT_EQ(st, PutStatus::StaleVersion);
}

TEST(SingleVersionKv, SameSlotNeighborsIndependent)
{
    // Keys 0..7 share one LBA; updates must not clobber neighbours.
    SvkvFixture f;
    bool all_ok = true;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (Key k = 0; k < 8; ++k)
            co_await f.kv.put(k, "k" + std::to_string(k), v(100 + (int)k));
        for (Key k = 0; k < 8; ++k) {
            auto g = co_await f.kv.getLatest(k);
            all_ok &= g.found && g.value == "k" + std::to_string(k);
        }
    });
    EXPECT_TRUE(all_ok);
}

TEST(SingleVersionKv, ConcurrentRmwSerializes)
{
    SvkvFixture f;
    // Two concurrent writers to keys in the same LBA; both must land.
    runSim(f.s, [&]() -> sim::Task<void> {
        sim::spawn([&]() -> sim::Task<void> {
            (void)co_await f.kv.put(0, "a", v(100));
        }());
        sim::spawn([&]() -> sim::Task<void> {
            (void)co_await f.kv.put(1, "b", v(101));
        }());
        co_await sim::sleepFor(f.s, 10 * kMillisecond);
        auto g0 = co_await f.kv.getLatest(0);
        auto g1 = co_await f.kv.getLatest(1);
        EXPECT_TRUE(g0.found);
        EXPECT_TRUE(g1.found);
        EXPECT_EQ(g0.value, "a");
        EXPECT_EQ(g1.value, "b");
    });
}

TEST(SingleVersionKv, UnwrittenSlotOfAWrittenBlockIsAMiss)
{
    // Keys 0 and 1 share a logical block. A put to one writes the
    // block with the other's slot unwritten: that key reads as a
    // miss, and its first put is accepted whatever its stamp. Both
    // orders, so key 0 (a default record's key) is the unwritten one
    // once.
    for (const auto &keys :
         {std::pair<Key, Key>{0, 1}, std::pair<Key, Key>{1, 0}}) {
        const Key written = keys.first;
        const Key unwritten = keys.second;
        SvkvFixture f;
        PutStatus put_written{}, first{};
        GetResult before, after;
        runSim(f.s, [&]() -> sim::Task<void> {
            put_written = co_await f.kv.put(written, "a", v(500));
            before = co_await f.kv.getLatest(unwritten);
            first = co_await f.kv.put(unwritten, "b", Version::zero());
            after = co_await f.kv.getLatest(unwritten);
        });
        EXPECT_EQ(put_written, PutStatus::Ok);
        EXPECT_FALSE(before.found) << "unwritten key " << unwritten;
        EXPECT_EQ(first, PutStatus::Ok) << "unwritten key " << unwritten;
        EXPECT_TRUE(after.found);
        EXPECT_EQ(after.value, "b");
        EXPECT_EQ(f.kv.stats().counterValue("svkv.stale_rejects"), 0u);
    }
}

// ---------------------------------------------------------------- VFTL

struct VftlFixture
{
    sim::Simulator s;
    flash::SsdDevice ssd;
    Sftl sftl;
    Vftl vftl;

    explicit VftlFixture(std::uint32_t blocks = 64)
        : ssd(s, smallGeometry(blocks)), sftl(s, ssd),
          vftl(s, sftl, Vftl::Config{})
    {
    }
};

TEST(Vftl, PutGetRoundTrip)
{
    VftlFixture f;
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.vftl.put(7, "hello", v(100));
        got = co_await f.vftl.get(7, v(100));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "hello");
}

TEST(Vftl, SnapshotReads)
{
    VftlFixture f;
    GetResult at150;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.vftl.put(1, "v100", v(100));
        co_await f.vftl.put(1, "v200", v(200));
        at150 = co_await f.vftl.get(1, v(150));
    });
    EXPECT_EQ(at150.value, "v100");
}

TEST(Vftl, WatermarkPrunes)
{
    VftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int i = 1; i <= 4; ++i)
            co_await f.vftl.put(2, "x", v(i * 100));
        f.vftl.setWatermark(250);
        (void)co_await f.vftl.get(2, v(10000));
    });
    // Keep v200 (youngest <= 250), v300, v400.
    EXPECT_EQ(f.vftl.versionCount(2), 3u);
}

TEST(Vftl, ReservesLbasForGc)
{
    VftlFixture f;
    // VFTL holds back ~10% of SFTL's logical blocks.
    EXPECT_LT(f.vftl.freeUnits(), f.sftl.logicalBlocks() + 1);
}

TEST(Vftl, GcCompactsDeadVersions)
{
    VftlFixture f(24);
    f.vftl.start();
    bool all_ok = true;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 30; ++round) {
            for (Key k = 0; k < 150; ++k) {
                auto st = co_await f.vftl.put(
                    k, "r" + std::to_string(round),
                    v(round * 1000 + static_cast<int>(k) + 1));
                all_ok &= (st == PutStatus::Ok);
            }
            f.vftl.setWatermark(round * 1000);
        }
        for (Key k = 0; k < 150; ++k) {
            auto g = co_await f.vftl.getLatest(k);
            all_ok &= g.found && g.value == "r29";
        }
        f.s.requestStop();
    });
    EXPECT_TRUE(all_ok);
    EXPECT_GT(f.vftl.stats().counterValue("vftl.gc_trims"), 0u);
}

TEST(Vftl, TwoLevelGcBothRun)
{
    VftlFixture f(20);
    f.vftl.start();
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 40; ++round) {
            for (Key k = 0; k < 120; ++k)
                co_await f.vftl.put(
                    k, "x", v(round * 1000 + static_cast<int>(k) + 1));
            f.vftl.setWatermark(round * 1000);
        }
        f.s.requestStop();
    });
    // Both the KV-layer GC and the SFTL GC below it must have worked.
    EXPECT_GT(f.vftl.stats().counterValue("vftl.gc_trims"), 0u);
    EXPECT_GT(f.sftl.stats().counterValue("sftl.gc_erases"), 0u);
}

// ---------------------------------------------------------------- DRAM

TEST(Dram, RoundTripAndSnapshots)
{
    sim::Simulator s;
    DramBackend dram(s);
    GetResult got;
    runSim(s, [&]() -> sim::Task<void> {
        co_await dram.put(1, "a", v(100));
        co_await dram.put(1, "b", v(200));
        got = co_await dram.get(1, v(150));
    });
    EXPECT_EQ(got.value, "a");
}

TEST(Dram, FastWrites)
{
    sim::Simulator s;
    DramBackend dram(s);
    common::Time done = 0;
    runSim(s, [&]() -> sim::Task<void> {
        co_await dram.put(1, "a", v(100));
        done = s.now();
    });
    EXPECT_LT(done, 2 * kMicrosecond); // orders faster than flash
}

TEST(Dram, WatermarkPrunes)
{
    sim::Simulator s;
    DramBackend dram(s);
    runSim(s, [&]() -> sim::Task<void> {
        for (int i = 1; i <= 5; ++i)
            co_await dram.put(1, "x", v(i * 100));
        dram.setWatermark(350);
        (void)co_await dram.get(1, v(1000));
    });
    EXPECT_EQ(dram.versionCount(1), 3u); // v300, v400, v500
}

// ------------------------------------------------- cross-backend props

class BackendParamTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BackendParamTest, MonotoneVersionsReadBack)
{
    sim::Simulator s;
    flash::SsdDevice ssd(s, smallGeometry(64));
    Sftl sftl(s, ssd);
    std::unique_ptr<KvBackend> backend;
    const std::string which = GetParam();
    if (which == "mftl")
        backend = std::make_unique<Mftl>(s, ssd, Mftl::Config{});
    else if (which == "vftl")
        backend = std::make_unique<Vftl>(s, sftl, Vftl::Config{});
    else
        backend = std::make_unique<DramBackend>(s);

    bool all_ok = true;
    runSim(s, [&]() -> sim::Task<void> {
        // Write 20 keys x 5 versions, then check every snapshot cut.
        for (int ver = 1; ver <= 5; ++ver)
            for (Key k = 0; k < 20; ++k)
                co_await backend->put(
                    k, "v" + std::to_string(ver),
                    v(ver * 100, static_cast<common::ClientId>(k % 3)));
        for (int cut = 1; cut <= 5; ++cut) {
            for (Key k = 0; k < 20; ++k) {
                auto g = co_await backend->get(k, v(cut * 100 + 50, 9));
                all_ok &= g.found &&
                          g.value == "v" + std::to_string(cut);
            }
        }
    });
    EXPECT_TRUE(all_ok);
}

INSTANTIATE_TEST_SUITE_P(AllMultiVersionBackends, BackendParamTest,
                         ::testing::Values("mftl", "vftl", "dram"));

TEST(Dram, PaperScalePopulateIdenticalAcrossTableCapacities)
{
    // 2M keys — the paper's Figure 6 key count. Populate one backend
    // that grows from the default table capacity and one pre-sized via
    // reserveKeys; reads must be byte-identical, so table geometry
    // (grow schedule, slot order, robin-hood displacement) is
    // unobservable.
    constexpr Key kKeys = 2'000'000;
    sim::Simulator s1, s2;
    DramBackend grown(s1);
    DramBackend sized(s2);
    sized.reserveKeys(kKeys);

    auto populate = [](sim::Simulator &s, DramBackend &d) {
        runSim(s, [&]() -> sim::Task<void> {
            for (Key k = 0; k < kKeys; ++k)
                co_await d.put(k, "k" + std::to_string(k % 97),
                               v(static_cast<common::Time>(k % 1000) + 1,
                                 static_cast<common::ClientId>(k % 5)));
        });
    };
    populate(s1, grown);
    populate(s2, sized);

    auto snapshot = [](sim::Simulator &s, DramBackend &d) {
        std::vector<GetResult> out;
        runSim(s, [&]() -> sim::Task<void> {
            for (Key k = 0; k < kKeys; k += 499) {
                const Version cut =
                    v(static_cast<common::Time>(k % 1000) + 1, 9);
                out.push_back(co_await d.get(k, cut));
            }
        });
        return out;
    };
    const auto a = snapshot(s1, grown);
    const auto b = snapshot(s2, sized);
    ASSERT_EQ(a.size(), b.size());
    bool identical = true;
    for (std::size_t i = 0; i < a.size(); ++i)
        identical &= a[i].found == b[i].found &&
                     a[i].version == b[i].version &&
                     a[i].value == b[i].value;
    EXPECT_TRUE(identical);
    EXPECT_EQ(grown.versionCount(12345), sized.versionCount(12345));
}

TEST(Vftl, RebuildFromStoreRecoversMappings)
{
    VftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        co_await f.vftl.put(1, "a", v(100));
        co_await f.vftl.put(1, "b", v(200));
        co_await f.vftl.put(2, "c", v(150));
    });
    const std::size_t recovered = f.vftl.rebuild();
    EXPECT_GE(recovered, 3u);
    GetResult got;
    runSim(f.s, [&]() -> sim::Task<void> {
        got = co_await f.vftl.get(1, v(150));
    });
    EXPECT_TRUE(got.found);
    EXPECT_EQ(got.value, "a");
}

TEST(Vftl, SweepAfterRebuildPrunesEveryChainToWatermark)
{
    VftlFixture f;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (Key k = 0; k < 12; ++k)
            for (common::Time ts = 100;
                 ts <= 100 * static_cast<common::Time>(1 + k % 4);
                 ts += 100)
                co_await f.vftl.put(k, "x", v(ts));
    });
    f.vftl.rebuild();
    f.vftl.start();
    f.vftl.setWatermark(250);
    runSweeps(f);
    for (Key k = 0; k < 12; ++k) {
        // Chains of 1..4 versions at 100, 200, ...: keep v200 and
        // everything above 250.
        const std::size_t n = 1 + k % 4;
        EXPECT_EQ(f.vftl.versionCount(k), n <= 2 ? 1u : n - 1)
            << "key " << k;
    }
}

TEST(Vftl, RebuildAfterGcStillConsistent)
{
    VftlFixture f(24);
    f.vftl.start();
    runSim(f.s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 20; ++round) {
            for (Key k = 0; k < 100; ++k)
                co_await f.vftl.put(
                    k, "r" + std::to_string(round),
                    v(round * 1000 + static_cast<int>(k) + 1));
            f.vftl.setWatermark(round * 1000);
        }
        f.s.requestStop();
    });
    f.vftl.rebuild();
    bool all_ok = true;
    runSim(f.s, [&]() -> sim::Task<void> {
        for (Key k = 0; k < 100; ++k) {
            auto g = co_await f.vftl.getLatest(k);
            all_ok &= g.found && g.value == "r19";
        }
    });
    EXPECT_TRUE(all_ok);
}

// ------------------------------------------------- stat-name contract

namespace {

/** Every counter and histogram name emitted into @p stats. */
std::set<std::string>
statNames(common::StatSet &stats)
{
    std::set<std::string> names;
    for (const auto &entry : stats.counters())
        names.insert(entry.first);
    for (const auto &entry : stats.histograms())
        names.insert(entry.first);
    return names;
}

/** Puts, overwrites under an advancing watermark (enough to make the
 *  collector relocate and reclaim) and a read. */
void
driveThroughGc(sim::Simulator &s, KvBackend &kv)
{
    kv.start();
    runSim(s, [&]() -> sim::Task<void> {
        for (int round = 0; round < 30; ++round) {
            for (Key k = 0; k < 150; ++k)
                co_await kv.put(
                    k, "x", v(round * 1000 + static_cast<int>(k) + 1));
            kv.setWatermark(round * 1000);
        }
        (void)co_await kv.getLatest(1);
        s.requestStop();
    });
}

} // namespace

// Benches and docs read these names (ablation_pack_timer reads
// mftl.pages_written, the end-to-end bench mftl.puts): they are part
// of each backend's interface, not an implementation detail.
TEST(Mftl, EmitsExactlyItsStatNames)
{
    MftlFixture f(32);
    driveThroughGc(f.s, f.mftl);
    EXPECT_EQ(statNames(f.mftl.stats()),
              (std::set<std::string>{
                  "mftl.gc_erases", "mftl.gc_page_reads",
                  "mftl.gc_remapped", "mftl.gc_victims", "mftl.get_latency",
                  "mftl.gets", "mftl.pages_written", "mftl.put_latency",
                  "mftl.puts", "mftl.versions_pruned"}));
}

TEST(Vftl, EmitsExactlyItsStatNames)
{
    VftlFixture f(24);
    driveThroughGc(f.s, f.vftl);
    EXPECT_EQ(statNames(f.vftl.stats()),
              (std::set<std::string>{
                  "vftl.gc_lba_reads", "vftl.gc_remapped",
                  "vftl.gc_trims", "vftl.gc_victims", "vftl.get_latency",
                  "vftl.gets", "vftl.lbas_written", "vftl.put_latency",
                  "vftl.puts", "vftl.versions_pruned"}));
    // The SFTL underneath collected too.
    EXPECT_EQ(statNames(f.sftl.stats()),
              (std::set<std::string>{
                  "sftl.gc_erases", "sftl.gc_page_reads",
                  "sftl.gc_page_writes", "sftl.gc_victims", "sftl.reads",
                  "sftl.trims", "sftl.writes"}));
}

// ------------------------------------------------- collector batches

namespace {

/** Synthetic units for the collector's batch selection: FlashPages'
 *  batch constants and projection, a cost of the live count alone (so
 *  equal counts tie) and a free pool set by hand. */
struct FakeUnits
{
    using Addr = std::uint32_t;
    static constexpr std::size_t kMaxVictims = FlashPages::kMaxVictims;
    static constexpr std::size_t kNetUnits = FlashPages::kNetUnits;
    static std::uint64_t
    projectedUnits(std::uint64_t live, std::uint64_t per_unit)
    {
        return FlashPages::projectedUnits(live, per_unit);
    }

    std::uint32_t count = 0;
    std::size_t free = 0;

    std::uint32_t units() const { return count; }
    std::size_t freeUnits() const { return free; }
    bool collectable(std::uint32_t) const { return true; }
    std::uint64_t
    victimCost(std::uint32_t, std::uint32_t live) const
    {
        return live;
    }
};

struct NoOwner
{
};

std::vector<std::uint32_t>
firstUnits(std::uint32_t n)
{
    std::vector<std::uint32_t> units(n);
    std::iota(units.begin(), units.end(), 0u);
    return units;
}

} // namespace

TEST(SpaceCollector, BatchSelectionStopsAtEachBound)
{
    // Units hold 8 items; a pass relocating L live items projects
    // L / 8 + 2 fresh units (FlashPages::projectedUnits).
    struct Case
    {
        const char *rule;
        std::vector<std::uint32_t> live;
        std::size_t free;
        std::vector<std::uint32_t> want;
    };
    const std::vector<std::uint32_t> nearly_full(40, 7);
    const Case cases[] = {
        // 32 victims 7/8 live project 30 units and net only 4.
        {"at most kMaxVictims", nearly_full, 100, firstUnits(32)},
        // k half-live victims consume ceil(k / 2) units: 24 net 12.
        {"stops once it nets kNetUnits", std::vector<std::uint32_t>(40, 4),
         100, firstUnits(24)},
        {"empty victims net one each", std::vector<std::uint32_t>(40, 0),
         100, firstUnits(12)},
        // With 10 free, 9 victims project 9 units; a tenth would
        // project 10 and leave no unit spare.
        {"keeps one free unit spare", nearly_full, 10, firstUnits(9)},
        {"always takes a first victim", nearly_full, 1, {0}},
        // Cheapest first, first among equals; a full unit frees nothing.
        {"cheapest first, first among equals", {5, 3, 3, 0, 8, 3, 0}, 100,
         {3, 6, 1, 2, 5, 0}},
    };
    for (const Case &c : cases) {
        sim::Simulator s;
        FakeUnits units{static_cast<std::uint32_t>(c.live.size()), c.free};
        NoOwner owner;
        common::StatSet stats;
        SpaceCollector<FakeUnits, NoOwner> gc(
            s, units, owner, stats,
            {.name = "fake",
             .perUnit = 8,
             .lowFraction = 0.1,
             .highFraction = 0.2,
             .victimsStat = "fake.victims",
             .reclaimsStat = "fake.reclaims"});
        for (std::uint32_t u = 0; u < c.live.size(); ++u)
            gc.live(u) = c.live[u];
        EXPECT_EQ(gc.selectVictims(), c.want) << c.rule;
    }
}

TEST(FreeBlockPool, PopMatchesLinearScanReference)
{
    // The reference is the FTLs' former open-block pick: a FIFO of
    // freed blocks, scanned for the least erase count, first wins.
    constexpr std::uint32_t kBlocks = 64;
    std::mt19937_64 rng(4);
    std::vector<std::uint32_t> erases(kBlocks, 0);
    FreeBlockPool pool(kBlocks);
    std::deque<std::uint32_t> ref;
    std::vector<std::uint32_t> in_use;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
        pool.push(b, erases[b]);
        ref.push_back(b);
    }
    for (int step = 0; step < 20000; ++step) {
        if (!ref.empty() && (in_use.empty() || rng() % 2 == 0)) {
            auto best = ref.begin();
            for (auto it = ref.begin(); it != ref.end(); ++it) {
                if (erases[*it] < erases[*best])
                    best = it;
            }
            const std::uint32_t want = *best;
            ref.erase(best);
            ASSERT_EQ(pool.pop(), want) << "step " << step;
            in_use.push_back(want);
        } else {
            // Erase a random in-use block (a few erase counts only, so
            // ties are common) and free it.
            const std::size_t i = rng() % in_use.size();
            const std::uint32_t b = in_use[i];
            in_use[i] = in_use.back();
            in_use.pop_back();
            erases[b] += static_cast<std::uint32_t>(rng() % 2);
            pool.push(b, erases[b]);
            ref.push_back(b);
        }
        ASSERT_EQ(pool.size(), ref.size());
        for (std::uint32_t b = 0; b < kBlocks; ++b) {
            ASSERT_EQ(pool.contains(b),
                      std::find(ref.begin(), ref.end(), b) != ref.end())
                << "step " << step << " block " << b;
        }
    }
    pool.clear();
    EXPECT_EQ(pool.size(), 0u);
    for (std::uint32_t b = 0; b < kBlocks; ++b)
        EXPECT_FALSE(pool.contains(b));
}
