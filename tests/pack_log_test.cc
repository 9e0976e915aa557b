/**
 * @file
 * Unit tests for the pack buffer (ftl::PackLog): fill-triggered and
 * timer-triggered flushes, batch boundaries, relocation flagging, and
 * forced flushes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ftl/pack_log.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace ftl;
using common::kMicrosecond;
using common::kMillisecond;

namespace {

struct Capture
{
    sim::Simulator sim;
    std::vector<std::vector<Pending>> batches;
    PackLog log;

    explicit Capture(common::Duration timeout = kMillisecond)
        : log(sim, timeout, [this](std::vector<Pending> b) {
              // Resolve acks immediately (stand-in for a flush task).
              for (auto &p : b)
                  p.ack.set(PutStatus::Ok);
              batches.push_back(std::move(b));
          })
    {
    }

    flash::Record
    record(common::Key key)
    {
        flash::Record r;
        r.key = key;
        return r;
    }
};

} // namespace

TEST(PackLog, FullPageFlushesImmediately)
{
    Capture c;
    for (common::Key k = 0; k < 8; ++k)
        (void)c.log.append(c.record(k), false);
    // 8 tuples fill a page: the batch must have flushed synchronously.
    ASSERT_EQ(c.batches.size(), 1u);
    EXPECT_EQ(c.batches[0].size(), 8u);
    EXPECT_TRUE(c.log.empty());
}

TEST(PackLog, TimerFlushesPartialPage)
{
    Capture c(kMillisecond);
    auto fut = c.log.append(c.record(1), false);
    EXPECT_TRUE(c.batches.empty());
    c.sim.run(); // fires the pack timer
    ASSERT_EQ(c.batches.size(), 1u);
    EXPECT_EQ(c.batches[0].size(), 1u);
    EXPECT_EQ(c.sim.now(), kMillisecond);
    EXPECT_TRUE(fut.ready());
}

TEST(PackLog, StaleTimerDoesNotDoubleFlush)
{
    Capture c(kMillisecond);
    (void)c.log.append(c.record(1), false);
    // Fill the page before the timer fires: one flush now...
    for (common::Key k = 2; k <= 8; ++k)
        (void)c.log.append(c.record(k), false);
    ASSERT_EQ(c.batches.size(), 1u);
    // ...and the stale timer must not flush an empty buffer again.
    c.sim.run();
    EXPECT_EQ(c.batches.size(), 1u);
}

TEST(PackLog, NinthTupleOpensANewPage)
{
    Capture c;
    for (common::Key k = 0; k < 9; ++k)
        (void)c.log.append(c.record(k), false);
    // The first 8 flushed as one page; the 9th waits alone in the next.
    ASSERT_EQ(c.batches.size(), 1u);
    EXPECT_EQ(c.batches[0].size(), 8u);
    EXPECT_EQ(c.batches[0].back().record.key, 7u);
    EXPECT_FALSE(c.log.empty());
    c.log.flushNow();
    ASSERT_EQ(c.batches.size(), 2u);
    ASSERT_EQ(c.batches[1].size(), 1u);
    EXPECT_EQ(c.batches[1][0].record.key, 8u);
}

TEST(PackLog, FlushNowForcesPartial)
{
    Capture c;
    (void)c.log.append(c.record(1), false);
    (void)c.log.append(c.record(2), false);
    c.log.flushNow();
    ASSERT_EQ(c.batches.size(), 1u);
    EXPECT_EQ(c.batches[0].size(), 2u);
    c.log.flushNow(); // idempotent on empty buffer
    EXPECT_EQ(c.batches.size(), 1u);
}

TEST(PackLog, RelocationFlagPreserved)
{
    Capture c;
    (void)c.log.append(c.record(1), false);
    (void)c.log.append(c.record(2), true);
    c.log.flushNow();
    ASSERT_EQ(c.batches.size(), 1u);
    EXPECT_FALSE(c.batches[0][0].relocation);
    EXPECT_TRUE(c.batches[0][1].relocation);
}

TEST(PackLog, RecycledBatchBecomesTheNextBuffer)
{
    // A flush function that hands its batch back: the capacity is
    // reused for the page after next (the next one is already open).
    sim::Simulator sim;
    std::vector<const Pending *> storage;
    std::vector<std::size_t> sizes;
    PackLog *self = nullptr;
    PackLog log(sim, kMillisecond, [&](std::vector<Pending> b) {
        storage.push_back(b.data());
        sizes.push_back(b.size());
        for (auto &p : b)
            p.ack.set(PutStatus::Ok);
        self->recycle(std::move(b));
    });
    self = &log;
    flash::Record r;
    for (common::Key k = 0; k < 24; ++k) {
        r.key = k;
        (void)log.append(r, false);
    }
    ASSERT_EQ(sizes, (std::vector<std::size_t>{8, 8, 8}));
    // Page 1 was recycled while page 2 was filling, so page 3 packs
    // into page 1's storage.
    EXPECT_EQ(storage[2], storage[0]);
    EXPECT_NE(storage[1], storage[0]);
}
