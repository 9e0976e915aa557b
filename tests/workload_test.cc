/**
 * @file
 * Tests for the workload layer: Retwis mix statistics, the cluster
 * builder, end-to-end Retwis runs on every backend, the contention
 * knob, the micro-benchmark driver, and the Centiman baseline.
 */

#include <vector>

#include <gtest/gtest.h>

#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "workload/cluster.hh"
#include "workload/micro.hh"
#include "workload/retwis.hh"

using namespace workload;
using common::kSecond;

namespace {

ClusterConfig
tinyCluster(BackendKind backend, std::uint32_t clients = 4)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    return cfg;
}

struct RunResult
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    double abortRate = 0;
};

RunResult
runRetwis(const ClusterConfig &ccfg, double alpha, int seconds,
          bool read_heavy = false)
{
    Cluster cluster(ccfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = alpha;
    rcfg.numKeys = ccfg.numKeys;
    rcfg.readHeavy = read_heavy;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runUntil(cluster.sim().now() + kSecond / 2);
    fleet.resetMeasurement();
    cluster.sim().runFor(seconds * kSecond);
    RunResult r;
    r.commits = fleet.totalCommits();
    r.aborts = fleet.totalAborts();
    r.abortRate = fleet.abortRate();
    return r;
}

} // namespace

TEST(Retwis, CommitsTransactionsOnDram)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Dram), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
    EXPECT_GE(r.abortRate, 0.0);
    EXPECT_LE(r.abortRate, 1.0);
}

TEST(Retwis, CommitsTransactionsOnMftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Mftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnVftl)
{
    const auto r = runRetwis(tinyCluster(BackendKind::Vftl), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, CommitsTransactionsOnSingleVersion)
{
    const auto r =
        runRetwis(tinyCluster(BackendKind::SingleVersion), 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, ContentionRaisesAbortRate)
{
    const auto low = runRetwis(tinyCluster(BackendKind::Dram, 8), 0.4, 2);
    const auto high =
        runRetwis(tinyCluster(BackendKind::Dram, 8), 0.99, 2);
    EXPECT_GT(high.abortRate, low.abortRate);
}

TEST(Retwis, SingleVersionAbortsMoreThanMultiVersion)
{
    // Figure 6's core claim at test scale. (At extreme contention the
    // two converge — write-write conflicts dominate — so probe the
    // moderate-contention regime where snapshots matter.)
    const auto sv = runRetwis(
        tinyCluster(BackendKind::SingleVersion, 8), 0.7, 2);
    const auto mv = runRetwis(tinyCluster(BackendKind::Mftl, 8), 0.7, 2);
    EXPECT_LT(mv.abortRate, sv.abortRate);
}

TEST(Retwis, ReplicatedClusterWorks)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.replicasPerShard = 3;
    const auto r = runRetwis(cfg, 0.6, 2);
    EXPECT_GT(r.commits, 100u);
}

TEST(Retwis, NtpAbortsMoreThanPtp)
{
    // Figure 7's core claim at test scale: same seed, same workload,
    // only the clock discipline differs.
    ClusterConfig ptp = tinyCluster(BackendKind::Dram, 8);
    ptp.clocks = ClockKind::PtpSw;
    ClusterConfig ntp = ptp;
    ntp.clocks = ClockKind::Ntp;
    const auto r_ptp = runRetwis(ptp, 0.9, 3);
    const auto r_ntp = runRetwis(ntp, 0.9, 3);
    EXPECT_LT(r_ptp.abortRate, r_ntp.abortRate);
}

TEST(Retwis, CentimanRunsAndValidates)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 4);
    cfg.numShards = 2;
    cfg.centiman = true;
    cfg.centimanDisseminateEvery = 50;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = 0.6;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(3 * kSecond);
    EXPECT_GT(fleet.totalCommits(), 100u);
    const auto stats = cluster.clientStats();
    // Both local and remote validation paths should have been used.
    EXPECT_GT(stats.counterValue("centiman.local_validated") +
                  stats.counterValue("centiman.remote_validated"),
              0u);
}

namespace {

/** Every section a cell reports: client, server, network, clock
 *  sync, backend and device. */
std::vector<common::StatSet>
sections(Cluster &cluster)
{
    return {cluster.clientStats(),      cluster.serverStats(),
            cluster.network().stats(),  cluster.clockStats(),
            cluster.backendStats(),     cluster.deviceStats()};
}

/**
 * A PTP-SW MFTL cell with backups, so every section counts something:
 * 1 s of warm-up, then @p atWindowStart, then a 1 s window.
 * @return the sections at the window's end.
 */
template <typename F>
std::vector<common::StatSet>
runPtpCell(F atWindowStart)
{
    ClusterConfig cfg = tinyCluster(BackendKind::Mftl);
    cfg.replicasPerShard = 3;
    cfg.clocks = ClockKind::PtpSw;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.numKeys = cfg.numKeys;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.runUntil(cluster.now() + kSecond);
    atWindowStart(cluster);
    cluster.runUntil(cluster.now() + kSecond);
    return sections(cluster);
}

} // namespace

TEST(Cluster, StatsAggregationAndReset)
{
    // A twin of the same seed is only snapshotted at the window's
    // start: resetStats() changes no simulation decision, so the
    // twin's growth across the window is what the reset cell must
    // count.
    std::vector<common::StatSet> twin_start;
    const std::vector<common::StatSet> twin_end =
        runPtpCell([&](Cluster &c) { twin_start = sections(c); });

    const std::vector<common::StatSet> end = runPtpCell([](Cluster &c) {
        for (const common::StatSet &s : sections(c))
            EXPECT_FALSE(s.counters().empty());
        EXPECT_GT(c.avgClientSkew(), 0.0);
        c.resetStats();
        for (const common::StatSet &s : sections(c)) {
            for (const auto &[name, counter] : s.counters())
                EXPECT_EQ(counter.value(), 0u) << name;
            for (const auto &[name, hist] : s.histograms())
                EXPECT_EQ(hist.count(), 0u) << name;
        }
        EXPECT_EQ(c.avgClientSkew(), 0.0);
    });

    ASSERT_EQ(end.size(), twin_end.size());
    const std::uint64_t calls =
        twin_end[2].counterValue("net.calls") -
        twin_start[2].counterValue("net.calls");
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(end[2].counterValue("net.calls"), calls);
    for (std::size_t i = 0; i < end.size(); ++i)
        for (const auto &[name, counter] : twin_end[i].counters())
            EXPECT_EQ(end[i].counterValue(name),
                      counter.value() - twin_start[i].counterValue(name))
                << name;
}

TEST(Cluster, TxnTableStaysBoundedOverLongRun)
{
    // Figure 8's shape (3x3 DRAM, PTP-SW, read-heavy Retwis) with few
    // clients, for 30 simulated seconds. Truncation keeps only the last
    // few hundred milliseconds of transactions, so the records held
    // over all servers stay under a fixed bound. Kept forever, they
    // grow by about 6,000 per simulated second here.
    constexpr std::size_t kBound = 2'000;
    ClusterConfig cfg;
    cfg.numShards = 3;
    cfg.replicasPerShard = 3;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::PtpSw;
    cfg.numKeys = 3000;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.alpha = 0.6;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    for (int checkpoint = 1; checkpoint <= 3; ++checkpoint) {
        cluster.sim().runUntil(cluster.sim().now() + 10 * kSecond);
        std::size_t held = 0;
        for (semel::Server *server : cluster.directory().all()) {
            if (server == nullptr)
                continue;
            const auto &table =
                dynamic_cast<milana::MilanaServer &>(*server).txnTable();
            held += table.size() + table.decidedCount();
        }
        EXPECT_LT(held, kBound) << "at " << 10 * checkpoint << " s";
    }
    EXPECT_GT(fleet.totalCommits(), 100'000u);
}

TEST(Micro, DriverSustainsThroughputOnDram)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 50;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    // DRAM sustains ~tens of millions of ops per simulated second;
    // a few simulated milliseconds are ample for the assertion.
    sim.runFor(2 * common::kMillisecond);
    EXPECT_GT(micro.gets(), 1000u);
    EXPECT_GT(micro.puts(), 1000u);
    EXPECT_GT(micro.getLatency().count(), 0u);
}

TEST(Micro, GetPercentRespected)
{
    sim::Simulator sim;
    ftl::DramBackend dram(sim);
    MicroConfig cfg;
    cfg.numKeys = 1000;
    cfg.workers = 16;
    cfg.getPercent = 90;
    MicroBench micro(sim, dram, cfg);
    micro.populate();
    micro.start();
    sim.runFor(2 * common::kMillisecond);
    const double get_frac =
        static_cast<double>(micro.gets()) /
        static_cast<double>(micro.gets() + micro.puts());
    EXPECT_NEAR(get_frac, 0.90, 0.03);
}

TEST(Micro, MftlSurvivesSustainedMixedLoad)
{
    // Regression test for the GC wedge class of bugs: a mixed load at
    // high concurrency must keep flowing through GC pressure.
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * flash::kRecordSize, 0.35));
    ftl::Mftl mftl(sim, ssd, ftl::Mftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, mftl, cfg);
    micro.populate();
    mftl.start();
    micro.start();
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    // Still making progress in the final two seconds.
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
    EXPECT_GT(ssd.stats().counterValue("ssd.erases"), 0u);
}

TEST(Micro, VftlSurvivesSustainedMixedLoad)
{
    sim::Simulator sim;
    flash::SsdDevice ssd(
        sim, flash::Geometry::scaledFor(5000 * flash::kRecordSize, 0.35));
    ftl::Sftl sftl(sim, ssd);
    ftl::Vftl vftl(sim, sftl, ftl::Vftl::Config{});
    MicroConfig cfg;
    cfg.numKeys = 5000;
    cfg.workers = 64;
    cfg.getPercent = 50;
    MicroBench micro(sim, vftl, cfg);
    micro.populate();
    vftl.start();
    micro.start();
    sim.runUntil(sim.now() + kSecond);
    const auto puts_at_1s = micro.puts();
    sim.runFor(2 * kSecond);
    EXPECT_GT(micro.puts(), puts_at_1s + 1000);
}

TEST(RetwisInstance, MixMatchesTable2)
{
    // Drive shapes statistically: read-only fraction ~50% (default) or
    // ~75% (read-heavy).
    ClusterConfig cfg = tinyCluster(BackendKind::Dram, 1);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    RetwisConfig rcfg;
    rcfg.numKeys = cfg.numKeys;
    rcfg.readHeavy = true;
    RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(3 * kSecond);
    const auto stats = cluster.clientStats();
    const double ro = static_cast<double>(
        stats.counterValue("txn.local_validations"));
    const double total =
        static_cast<double>(stats.counterValue("txn.begun"));
    ASSERT_GT(total, 500);
    EXPECT_NEAR(ro / total, 0.75, 0.06);
}
