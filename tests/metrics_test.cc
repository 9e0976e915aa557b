/**
 * @file
 * Metrics-plane contract tests: MetricsRegistry sampling semantics
 * (counter deltas, reset detection, gauges, per-window histogram
 * quantiles), TimeSeriesLog ring behavior, sampler window alignment
 * on interval boundaries, counter-delta conservation against final
 * StatSet totals, the property CI byte-compares — identical
 * deterministic exports across runs of one seed — and the
 * --metrics-interval flag's rejection of unusable values.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

namespace {

using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::MetricPoint;
using common::MetricsRegistry;
using common::SeriesKind;
using common::StatSet;
using common::Time;
using common::TimeSeriesLog;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

constexpr common::Duration kInterval = 50 * kMillisecond;

TEST(TimeSeriesLog, RingKeepsNewestAndCountsDropped)
{
    TimeSeriesLog log(kInterval, /*windowCapacity=*/4);
    auto &s = log.series("x", 1, SeriesKind::Gauge);
    for (int i = 0; i < 10; ++i) {
        MetricPoint p;
        p.windowStart = i * kInterval;
        p.windowEnd = (i + 1) * kInterval;
        p.value = i;
        s.push(p);
    }
    EXPECT_EQ(s.appended(), 10u);
    EXPECT_EQ(s.dropped(), 6u);
    const auto points = s.points();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points.front().value, 6.0); // oldest surviving
    EXPECT_EQ(points.back().value, 9.0);
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_LT(points[i - 1].windowStart, points[i].windowStart);
}

TEST(MetricsRegistry, CounterDeltasAndResetDetection)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 5, stats);

    stats.counter("ops").inc(100);
    reg.prime(); // baseline: the first window must not see the 100
    stats.counter("ops").inc(7);
    reg.sample(0, kInterval);
    stats.counter("ops").inc(3);
    reg.sample(kInterval, 2 * kInterval);
    // Reset mid-run (resetStats at measurement start): the delta is
    // the post-reset value, not a huge unsigned wraparound.
    stats.reset();
    stats.counter("ops").inc(2);
    reg.sample(2 * kInterval, 3 * kInterval);

    const auto *s = reg.log().find("t.ops", 5);
    ASSERT_NE(s, nullptr);
    const auto points = s->points();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].value, 7.0);
    EXPECT_EQ(points[1].value, 3.0);
    EXPECT_EQ(points[2].value, 2.0);
}

TEST(MetricsRegistry, SampleIsIdempotentPerWindow)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 0, stats);
    stats.counter("ops").inc(4);
    reg.sample(0, kInterval);
    stats.counter("ops").inc(9);
    reg.sample(0, kInterval); // same window end: must be a no-op
    const auto points = reg.log().find("t.ops", 0)->points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].value, 4.0);
}

TEST(MetricsRegistry, GaugeSampledAtBoundary)
{
    double level = 1.5;
    MetricsRegistry reg(kInterval);
    reg.addGauge("q.depth", 9, [&level] { return level; });
    reg.sample(0, kInterval);
    level = 4.0;
    reg.sample(kInterval, 2 * kInterval);
    const auto points = reg.log().find("q.depth", 9)->points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].value, 1.5);
    EXPECT_EQ(points[1].value, 4.0);
}

TEST(MetricsRegistry, HistogramWindowQuantilesAreWindowLocal)
{
    StatSet stats;
    MetricsRegistry reg(kInterval);
    reg.addStatSet("t.", 0, stats);
    // Window 1: slow ops only. Window 2: fast ops only. Each window's
    // quantiles must reflect only its own samples, not the cumulative
    // distribution.
    for (int i = 0; i < 100; ++i)
        stats.histogram("lat").record(1'000'000);
    reg.sample(0, kInterval);
    for (int i = 0; i < 100; ++i)
        stats.histogram("lat").record(1'000);
    reg.sample(kInterval, 2 * kInterval);

    const auto points = reg.log().find("t.lat", 0)->points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].count, 100u);
    EXPECT_EQ(points[1].count, 100u);
    EXPECT_GT(points[0].p50, 500'000);
    EXPECT_LT(points[1].p50, 2'000); // cumulative p50 would be huge
    EXPECT_GT(points[0].p999, points[1].p999);
}

/** A small fig6-style cell with the metrics plane on. */
struct CellRun
{
    std::string json; ///< milana-metrics-v1 export
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::vector<MetricPoint> commitPoints;
};

CellRun
runCell(common::Duration measure)
{
    MetricsRegistry metrics(kInterval);

    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.seed = 1;
    cfg.metrics = &metrics;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = 0.8;
    retwis.numKeys = cfg.numKeys;
    retwis.seed = cfg.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runFor(measure);
    cluster.finishMetrics();

    CellRun run;
    std::ostringstream js;
    metrics.log().writeJson(js);
    run.json = js.str();
    run.committed =
        cluster.clientStats().counterValue("txn.committed");
    run.aborted = cluster.clientStats().counterValue("txn.aborted");
    // Gather the committed-counter deltas across client nodes, summed
    // per window boundary for the conservation check.
    for (const auto *s : metrics.log().sorted()) {
        if (s->name != "client.txn.committed")
            continue;
        for (const MetricPoint &p : s->points())
            run.commitPoints.push_back(p);
    }
    return run;
}

TEST(MetricsPlane, WindowsAlignToIntervalBoundaries)
{
    const CellRun run = runCell(230 * kMillisecond);
    ASSERT_FALSE(run.commitPoints.empty());
    for (std::size_t i = 0; i < run.commitPoints.size(); ++i) {
        const MetricPoint &p = run.commitPoints[i];
        EXPECT_EQ(p.windowStart % kInterval, 0)
            << "window " << i << " start off-grid";
        EXPECT_GT(p.windowEnd, p.windowStart);
        EXPECT_LE(p.windowEnd - p.windowStart, kInterval);
        // Every window but each series' final (flushed, possibly
        // partial) one ends exactly on the grid. commitPoints
        // concatenates the per-client-node series; within one series
        // window starts strictly increase, and a drop marks the next
        // series' first point.
        if (i + 1 < run.commitPoints.size() &&
            run.commitPoints[i + 1].windowStart > p.windowStart) {
            EXPECT_EQ(p.windowEnd % kInterval, 0);
        }
    }
}

TEST(MetricsPlane, CounterDeltasSumToFinalTotals)
{
    const CellRun run = runCell(kSecond / 4);
    ASSERT_GT(run.committed, 0u);
    double sum = 0.0;
    for (const MetricPoint &p : run.commitPoints)
        sum += p.value;
    EXPECT_EQ(static_cast<std::uint64_t>(sum), run.committed);
}

TEST(MetricsPlane, DeterministicExportsIdenticalAcrossRuns)
{
    const CellRun one = runCell(kSecond / 2);
    ASSERT_GT(one.committed, 100u); // guard: the workload really ran
    EXPECT_NE(one.json.find("client.txn.committed"), std::string::npos);
    EXPECT_NE(one.json.find("flash.ssd.queued"), std::string::npos);

    const CellRun two = runCell(kSecond / 2);
    EXPECT_EQ(one.json, two.json);
}

/** --metrics-interval=@p value, read the way milana-sim and fig6 do. */
common::Duration
metricsInterval(const std::string &value)
{
    std::string prog = "bench";
    std::string flag = "--metrics-interval=" + value;
    char *argv[] = {prog.data(), flag.data()};
    return bench::Args(2, argv).getDuration("metrics-interval",
                                            100 * kMillisecond);
}

TEST(MetricsIntervalDeathTest, RejectsZeroNegativeAndMalformed)
{
    EXPECT_EQ(metricsInterval("250us"), 250 * kMicrosecond);
    EXPECT_EQ(metricsInterval("5"), 5 * kMillisecond);
    // Each would otherwise divide by zero, schedule into the past or
    // silently fall back to the default.
    for (const char *bad : {"0", "-5ms", "10xs"}) {
        EXPECT_EXIT(metricsInterval(bad), ::testing::ExitedWithCode(2),
                    "metrics-interval")
            << bad;
    }
}

/** The flags of a bench command line made of @p tokens. */
bench::Args
commandLine(std::vector<std::string> tokens)
{
    std::string prog = "bench";
    std::vector<char *> argv{prog.data()};
    for (std::string &t : tokens)
        argv.push_back(t.data());
    return bench::Args(static_cast<int>(argv.size()), argv.data());
}

/** --keys=@p value, read the way every bench and milana-sim read a
 *  count flag. */
std::int64_t
keysFlag(const std::string &value)
{
    return commandLine({"--keys=" + value}).getInt("keys", 7);
}

TEST(IntFlagDeathTest, AcceptsOnlyWholeNonNegativeDecimals)
{
    EXPECT_EQ(keysFlag("2000"), 2000);
    EXPECT_EQ(keysFlag("0"), 0);
    // Each would otherwise wrap to billions (-1 shards), truncate to a
    // 0 s window or parse as 0 or 10.
    for (const char *bad : {"-1", "0.5", "abc", "10x"}) {
        EXPECT_EXIT(keysFlag(bad), ::testing::ExitedWithCode(2), "keys")
            << bad;
    }
    // Read as absent, the two-token form would run with the default.
    EXPECT_EXIT(commandLine({"--keys", "2000"}).getInt("keys", 7),
                ::testing::ExitedWithCode(2), "keys");
}

TEST(UnknownFlagDeathTest, RejectsEveryArgumentNoReadAskedFor)
{
    const bench::Args args = commandLine({"--keys=2000", "--full"});
    EXPECT_EQ(args.getInt("keys", 7), 2000);
    EXPECT_TRUE(args.has("full"));
    args.rejectUnknown(); // every flag given was read: no exit
    // Mistyped, a flag would otherwise leave its default in force.
    for (const char *bad : {"--kyes=2000", "--ful", "--=1", "--", "keys"}) {
        const bench::Args typo = commandLine({"--keys=2000", bad});
        typo.getInt("keys", 7);
        typo.has("full");
        EXPECT_EXIT(typo.rejectUnknown(), ::testing::ExitedWithCode(2),
                    std::string("unknown argument ") + bad)
            << bad;
    }
}

/** --alpha=@p value, read the way every bench and milana-sim read a
 *  real-valued flag. */
double
alphaFlag(const std::string &value)
{
    return commandLine({"--alpha=" + value}).getDouble("alpha", 0.5);
}

TEST(DoubleFlagDeathTest, AcceptsOnlyNonNegativeDecimals)
{
    EXPECT_EQ(alphaFlag("0.8"), 0.8);
    EXPECT_EQ(alphaFlag("1"), 1.0);
    // Each would otherwise parse as 0 (a uniform key choice) or 0.8.
    for (const char *bad : {"abc", "0.8x", ""}) {
        EXPECT_EXIT(alphaFlag(bad), ::testing::ExitedWithCode(2), "alpha")
            << bad;
    }
    EXPECT_EXIT(commandLine({"--alpha", "0.8"}).getDouble("alpha", 0.5),
                ::testing::ExitedWithCode(2), "alpha");
}

} // namespace
