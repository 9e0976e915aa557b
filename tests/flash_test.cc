/**
 * @file
 * Tests for the SSD device model: flash semantics (erase-before-write,
 * in-order programming), latencies, queue-depth limits, read pins,
 * wear counters, and the lifetimes of the flat record store's slots.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/mman.h>

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
        const PageRecords p = co_await ssd.readPage({0, 0});
        ok = p.size() == 1 && p[0].key == 42;
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
        const PageRecords p = co_await ssd.readPage({2, 0});
        ok = p[0].key == 9;
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(ssd.eraseCount(2), 1u);
}

TEST(Ssd, PageRecordsStayInPlaceUntilTheirErase)
{
    // Readers hold a span of a page's records across suspensions (GC
    // scans, pinned gets): programs of neighbouring pages and erases
    // of other blocks must not move them, and a reprogrammed erased
    // page shows only its new records.
    sim::Simulator s;
    SsdDevice ssd(s, tinyGeometry());
    bool stayed_on_program = false;
    bool stayed_on_erase = false;
    bool reprogrammed = false;
    auto t = [&]() -> sim::Task<void> {
        PageData wide;
        for (std::uint64_t k = 0; k < kRecordsPerPage; ++k)
            wide.records.push_back(onePage(k).records[0]);
        co_await ssd.programPage({3, 0}, std::move(wide));
        co_await ssd.programPage({4, 0}, onePage(40));
        const PageRecords p = co_await ssd.readPage({3, 0});
        const Record *stored = p.data();

        for (std::uint32_t pg = 1; pg < 4; ++pg)
            co_await ssd.programPage({3, pg}, onePage(pg));
        co_await ssd.programPage({2, 0}, onePage(20));
        const PageRecords again = co_await ssd.readPage({3, 0});
        stayed_on_program = again.data() == stored && again.size() == 8 &&
                            p[7].key == 7;

        co_await ssd.eraseBlock(2);
        co_await ssd.eraseBlock(4);
        stayed_on_erase = ssd.peekPage({3, 0}).data() == stored &&
                          p[0].key == 0 && p[7].value == "v";

        co_await ssd.eraseBlock(3);
        co_await ssd.programPage({3, 0}, onePage(9));
        const PageRecords q = co_await ssd.readPage({3, 0});
        reprogrammed = q.size() == 1 && q[0].key == 9 && q[0].value == "v";
    };
    sim::spawn(t());
    s.run();
    EXPECT_TRUE(stayed_on_program);
    EXPECT_TRUE(stayed_on_erase);
    EXPECT_TRUE(reprogrammed);
}

TEST(Ssd, EraseHandsTheBlocksHostMemoryBack)
{
    // A block of 32 pages holds 14 KB of record slots. Block 1's slots
    // start halfway into an OS page they share with block 0 and end on
    // an OS page boundary: their three whole OS pages are resident once
    // programmed, handed back by the erase, and faulted in again
    // (zeroed) by the next program. The shared page stays, since block
    // 0's records may live in it.
    Geometry g = tinyGeometry();
    g.pagesPerBlock = 32;
    sim::Simulator s;
    SsdDevice ssd(s, g);
    constexpr std::uintptr_t kOsPage = 4096;
    const std::size_t span = g.pagesPerBlock * kRecordsPerPage *
                             sizeof(Record);
    // Resident OS pages among the @p n from the one holding @p at.
    auto resident = [&](std::uintptr_t at, std::size_t n) {
        std::vector<unsigned char> in(n);
        EXPECT_EQ(::mincore(reinterpret_cast<void *>(at & ~(kOsPage - 1)),
                            n * kOsPage, in.data()),
                  0);
        std::size_t count = 0;
        for (const unsigned char c : in)
            count += c & 1;
        return count;
    };
    std::uintptr_t first = 0;
    std::size_t before = 0, after = 0, shared_after = 0;
    bool reread = false;
    auto t = [&]() -> sim::Task<void> {
        for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
            PageData d;
            for (std::uint32_t i = 0; i < kRecordsPerPage; ++i)
                d.records.push_back(onePage(p * 8 + i).records[0]);
            co_await ssd.programPage({1, p}, std::move(d));
        }
        const PageRecords page0 = ssd.peekPage({1, 0});
        first = reinterpret_cast<std::uintptr_t>(page0.data());
        before = resident(first + kOsPage, 3);
        co_await ssd.eraseBlock(1);
        after = resident(first + kOsPage, 3);
        shared_after = resident(first, 1);
        co_await ssd.programPage({1, 0}, onePage(5));
        const PageRecords p = co_await ssd.readPage({1, 0});
        reread = reinterpret_cast<std::uintptr_t>(p.data()) == first &&
                 p.size() == 1 && p[0].key == 5 && p[0].value == "v";
    };
    sim::spawn(t());
    s.run();
    ASSERT_EQ(span, 14u * 1024);
    EXPECT_EQ(first % kOsPage, kOsPage / 2);
    EXPECT_EQ((first + span) % kOsPage, 0u);
    EXPECT_EQ(before, 3u);
    EXPECT_EQ(after, 0u);
    EXPECT_EQ(shared_after, 1u);
    EXPECT_TRUE(reread);
}

TEST(Ssd, DestroyingTheDeviceDestroysProgrammedRecords)
{
    // Values past the 15-char short-string buffer own heap memory: a
    // programmed record the destructor skips shows as a leak under
    // LeakSanitizer.
    const std::string big(64, 'x');
    sim::Simulator s;
    auto ssd = std::make_unique<SsdDevice>(s, tinyGeometry());
    auto t = [&]() -> sim::Task<void> {
        for (std::uint32_t b = 0; b < 3; ++b) {
            for (std::uint32_t pg = 0; pg < 4; ++pg) {
                PageData d;
                for (std::uint32_t i = 0; i <= pg; ++i) {
                    Record r;
                    r.key = b * 100 + pg * 10 + i;
                    r.value = big + std::to_string(r.key);
                    d.records.push_back(std::move(r));
                }
                co_await ssd->programPage({b, pg}, std::move(d));
            }
        }
        co_await ssd->eraseBlock(1); // partly erased device
    };
    sim::spawn(t());
    s.run();
    EXPECT_EQ(ssd->peekPage({2, 3}).size(), 4u);
    EXPECT_EQ(ssd->peekPage({2, 3})[3].value, big + "233");
    EXPECT_EQ(ssd->pageState({1, 0}), PageState::Erased);
    ssd.reset();
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
            // Past the short-string buffer: the value owns heap memory.
            r.value = "block" + std::to_string(block) + "-page" +
                      std::to_string(page) + "-record" + std::to_string(i);
            d.records.push_back(r);
        }
        return d;
    };
    auto same = [](PageRecords a, const PageData &b) {
        if (a.size() != b.records.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const Record &x = a[i];
            const Record &y = b.records[i];
            if (x.key != y.key || !(x.version == y.version) ||
                x.value != y.value)
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
                const PageRecords read = co_await ssd.readPage({b, p});
                outer_intact = outer_intact && same(read, content(b, p));
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
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(kRecordsPerPage, 8u);
    EXPECT_EQ(g.pagesPerBlock, 32u);
    EXPECT_EQ(g.readLatency, 50 * kMicrosecond);
    EXPECT_EQ(g.writeLatency, 100 * kMicrosecond);
    EXPECT_EQ(g.eraseLatency, kMillisecond);
    EXPECT_EQ(g.queueDepth, 128u);
}
