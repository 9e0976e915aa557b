/**
 * @file
 * Tests for the SSD device model: flash semantics (erase-before-write,
 * in-order programming), latencies, queue-depth limits, read pins, and
 * wear counters.
 */

#include <gtest/gtest.h>

#include <string>

#include "flash/ssd.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace flash;
using common::kMicrosecond;
using common::kMillisecond;

namespace {

Geometry
tinyGeometry()
{
    Geometry g;
    g.numBlocks = 8;
    g.pagesPerBlock = 4;
    g.numChannels = 2;
    g.queueDepth = 4;
    return g;
}

PageData
onePage(std::uint64_t key)
{
    PageData d;
    Record r;
    r.key = key;
    r.value = "v";
    d.records.push_back(r);
    return d;
}

} // namespace

TEST(Ssd, ProgramThenReadRoundTrips)
{
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    bool ok = false;
    auto t = [&]() -> sim::Task<void> {
        co_await ssd.programPage({0, 0}, onePage(42));
        const PageData *p = co_await ssd.readPage({0, 0});
        ok = p->records.size() == 1 && p->records[0].key == 42;
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(ok);
}

TEST(Ssd, LatenciesMatchGeometry)
{
    sim::Simulator s;
    auto g = tinyGeometry();
    SsdDevice ssd(s, g);
    common::Time wrote = 0, read = 0, erased = 0;
    auto t = [&]() -> sim::Task<void> {
        co_await ssd.programPage({0, 0}, onePage(1));
        wrote = s.now();
        (void)co_await ssd.readPage({0, 0});
        read = s.now();
        co_await ssd.eraseBlock(0);
        erased = s.now();
    };
    sim::spawn(t());
    s.run();
    EXPECT_EQ(wrote, g.writeLatency);
    EXPECT_EQ(read, wrote + g.readLatency);
    EXPECT_EQ(erased, read + g.eraseLatency);
}

TEST(SsdDeath, OutOfOrderProgramPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        sim::Simulator s;
        SsdDevice ssd(s, tinyGeometry());
        auto t = [&]() -> sim::Task<void> {
            co_await ssd.programPage({0, 1}, onePage(1)); // page 0 skipped
        };
        sim::spawn(t());
        s.run();
    };
    EXPECT_DEATH(run(), "out-of-order");
}

TEST(SsdDeath, RewriteWithoutErasePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        sim::Simulator s;
        SsdDevice ssd(s, tinyGeometry());
        auto t = [&]() -> sim::Task<void> {
            co_await ssd.programPage({0, 0}, onePage(1));
            co_await ssd.programPage({0, 0}, onePage(2));
        };
        sim::spawn(t());
        s.run();
    };
    EXPECT_DEATH(run(), "non-erased|out-of-order");
}

TEST(SsdDeath, ReadUnprogrammedPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        sim::Simulator s;
        SsdDevice ssd(s, tinyGeometry());
        auto t = [&]() -> sim::Task<void> {
            (void)co_await ssd.readPage({1, 0});
        };
        sim::spawn(t());
        s.run();
    };
    EXPECT_DEATH(run(), "unprogrammed");
}

TEST(Ssd, EraseResetsBlockForReuse)
{
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    bool ok = false;
    auto t = [&]() -> sim::Task<void> {
        co_await ssd.programPage({2, 0}, onePage(1));
        co_await ssd.eraseBlock(2);
        co_await ssd.programPage({2, 0}, onePage(9));
        const PageData *p = co_await ssd.readPage({2, 0});
        ok = p->records[0].key == 9;
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(ssd.eraseCount(2), 1u);
}

TEST(Ssd, ErasedPagesHandTheirBuffersToLaterPrograms)
{
    // A page's records stay where a reader's pointer found them until
    // the erase; then the cleared vector, capacity kept, becomes the
    // buffer pageBuffer() hands the next program.
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    EXPECT_EQ(ssd.pageBuffer().records.capacity(), 0u); // nothing erased
    bool ok = false;
    auto t = [&]() -> sim::Task<void> {
        PageData wide;
        for (std::uint64_t k = 0; k < 6; ++k)
            wide.records.push_back(onePage(k).records[0]);
        co_await ssd.programPage({3, 0}, std::move(wide));
        const PageData *p = co_await ssd.readPage({3, 0});
        const Record *stored = p->records.data();
        co_await ssd.programPage({3, 1}, onePage(7));
        // Programming a neighbour does not move this page's storage.
        const bool stayed = p->records.data() == stored &&
                            p->records[5].key == 5;
        co_await ssd.eraseBlock(3);

        // Spares come back last-erased first: page 1's, then page 0's.
        const bool page1 = ssd.pageBuffer().records.capacity() >= 1;
        PageData reused = ssd.pageBuffer();
        const bool recycled = page1 && reused.records.empty() &&
                              reused.records.capacity() >= 6;
        reused.records.push_back(onePage(9).records[0]);
        co_await ssd.programPage({4, 0}, std::move(reused));
        const PageData *q = co_await ssd.readPage({4, 0});
        ok = stayed && recycled && q->records.size() == 1 &&
             q->records[0].key == 9 && q->records[0].value == "v";
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(ssd.pageBuffer().records.capacity(), 0u); // all handed out
}

TEST(Ssd, EraseClearsOnlyItsOwnBlockOfTheFlatPageStore)
{
    // Blocks 1..3 filled, the middle one erased: a page store indexed
    // with a wrong block stride erases or keeps the wrong pages.
    const Geometry g = tinyGeometry();
    sim::Simulator s;
    SsdDevice ssd(s, g);
    auto content = [](std::uint32_t block, std::uint32_t page) {
        PageData d;
        for (std::uint32_t i = 0; i <= page; ++i) {
            Record r;
            r.key = block * 100 + page * 10 + i;
            r.version = Version{block * 1000 + page, i};
            r.value = "b" + std::to_string(block) + "p" +
                      std::to_string(page) + "r" + std::to_string(i);
            r.lba = block * 10 + page;
            r.sizeBytes = 100 + i;
            r.tombstone = (i % 2) == 1;
            d.records.push_back(r);
        }
        return d;
    };
    auto same = [](const PageData &a, const PageData &b) {
        if (a.records.size() != b.records.size())
            return false;
        for (std::size_t i = 0; i < a.records.size(); ++i) {
            const Record &x = a.records[i];
            const Record &y = b.records[i];
            if (x.key != y.key || !(x.version == y.version) ||
                x.value != y.value || x.lba != y.lba ||
                x.sizeBytes != y.sizeBytes || x.tombstone != y.tombstone)
                return false;
        }
        return true;
    };
    bool outer_intact = true;
    auto t = [&]() -> sim::Task<void> {
        for (std::uint32_t b = 1; b <= 3; ++b)
            for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
                co_await ssd.programPage({b, p}, content(b, p));
        co_await ssd.eraseBlock(2);
        for (const std::uint32_t b : {1u, 3u}) {
            for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
                if (ssd.pageState({b, p}) != PageState::Programmed) {
                    outer_intact = false; // a read would panic
                    continue;
                }
                const PageData *read = co_await ssd.readPage({b, p});
                outer_intact = outer_intact && same(*read, content(b, p));
            }
        }
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(outer_intact);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
        EXPECT_EQ(ssd.pageState({2, p}), PageState::Erased) << p;
        EXPECT_EQ(ssd.pageState({1, p}), PageState::Programmed) << p;
        EXPECT_EQ(ssd.pageState({3, p}), PageState::Programmed) << p;
    }
    EXPECT_EQ(ssd.eraseCount(1), 0u);
    EXPECT_EQ(ssd.eraseCount(2), 1u);
    EXPECT_EQ(ssd.eraseCount(3), 0u);
    // The erased block's record vectors are the next programs' buffers.
    const PageData recycled = ssd.pageBuffer();
    EXPECT_TRUE(recycled.records.empty());
    EXPECT_GE(recycled.records.capacity(), 1u);
}

TEST(Ssd, ChannelsServiceInParallel)
{
    sim::Simulator s;
    auto g = tinyGeometry(); // 2 channels
    SsdDevice ssd(s, g);
    // Blocks 0 and 1 are on different channels; their programs overlap.
    int done = 0;
    auto t = [&](std::uint32_t block) -> sim::Task<void> {
        co_await ssd.programPage({block, 0}, onePage(block));
        ++done;
    };
    sim::spawn(t(0));
    sim::spawn(t(1));
    s.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(s.now(), g.writeLatency); // parallel, not serialized
}

TEST(Ssd, SameChannelSerializes)
{
    sim::Simulator s;
    auto g = tinyGeometry(); // blocks 0 and 2 share channel 0
    SsdDevice ssd(s, g);
    auto t = [&](std::uint32_t block) -> sim::Task<void> {
        co_await ssd.programPage({block, 0}, onePage(block));
    };
    sim::spawn(t(0));
    sim::spawn(t(2));
    s.run();
    EXPECT_EQ(s.now(), 2 * g.writeLatency);
}

TEST(Ssd, QueueDepthLimitsAdmission)
{
    sim::Simulator s;
    Geometry g = tinyGeometry();
    g.numChannels = 8;
    g.numBlocks = 8;
    g.queueDepth = 2; // only 2 ops in flight despite 8 channels
    SsdDevice ssd(s, g);
    auto t = [&](std::uint32_t block) -> sim::Task<void> {
        co_await ssd.programPage({block, 0}, onePage(block));
    };
    for (std::uint32_t b = 0; b < 8; ++b)
        sim::spawn(t(b));
    s.run();
    // 8 writes, 2 at a time -> 4 serial rounds.
    EXPECT_EQ(s.now(), 4 * g.writeLatency);
}

TEST(Ssd, PinBlocksErase)
{
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    common::Time erase_done = 0;
    auto writer = [&]() -> sim::Task<void> {
        co_await ssd.programPage({3, 0}, onePage(7));
    };
    sim::spawn(writer());
    s.run();

    ssd.pinBlock(3);
    auto eraser = [&]() -> sim::Task<void> {
        co_await ssd.eraseBlock(3);
        erase_done = s.now();
    };
    sim::spawn(eraser());
    s.schedule(5 * kMillisecond, [&] { ssd.unpinBlock(3); });
    s.run();
    EXPECT_GE(erase_done, 5 * kMillisecond);
}

TEST(Ssd, WearSpreadTracksEraseImbalance)
{
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    auto t = [&]() -> sim::Task<void> {
        co_await ssd.eraseBlock(0);
        co_await ssd.eraseBlock(0);
        co_await ssd.eraseBlock(1);
    };
    sim::spawn(t());
    s.run();
    EXPECT_EQ(ssd.eraseCount(0), 2u);
    EXPECT_EQ(ssd.wearSpread(), 2u);
}

TEST(Ssd, StatsCountOps)
{
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    auto t = [&]() -> sim::Task<void> {
        co_await ssd.programPage({0, 0}, onePage(1));
        (void)co_await ssd.readPage({0, 0});
        (void)co_await ssd.readPage({0, 0});
        co_await ssd.eraseBlock(0);
    };
    sim::spawn(t());
    s.run();
    EXPECT_EQ(ssd.stats().counterValue("ssd.programs"), 1u);
    EXPECT_EQ(ssd.stats().counterValue("ssd.reads"), 2u);
    EXPECT_EQ(ssd.stats().counterValue("ssd.erases"), 1u);
}

TEST(Geometry, ScaledForTargetsUtilization)
{
    const auto g = Geometry::scaledFor(100 * 1024 * 1024, 0.5);
    EXPECT_GE(g.capacityBytes(), 200ull * 1024 * 1024);
    EXPECT_LT(g.capacityBytes(), 210ull * 1024 * 1024);
}

TEST(Geometry, PaperDefaults)
{
    const Geometry g;
    EXPECT_EQ(g.pageSize, 4096u);
    EXPECT_EQ(g.pagesPerBlock, 32u);
    EXPECT_EQ(g.readLatency, 50 * kMicrosecond);
    EXPECT_EQ(g.writeLatency, 100 * kMicrosecond);
    EXPECT_EQ(g.eraseLatency, kMillisecond);
    EXPECT_EQ(g.queueDepth, 128u);
}
