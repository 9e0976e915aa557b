#include "workload/cell.hh"

#include <chrono>

#include "workload/retwis.hh"

namespace workload {

CellReport
runCell(const CellSpec &spec)
{
    CellReport report;
    Cluster cluster(spec.cluster);
    const auto populate_start = std::chrono::steady_clock::now();
    cluster.populate();
    report.populateSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      populate_start)
            .count();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = spec.alpha;
    retwis.readHeavy = spec.readHeavy;
    retwis.numKeys = spec.cluster.numKeys;
    retwis.seed = spec.cluster.seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + spec.warmup);
    fleet.resetMeasurement();
    cluster.resetStats();
    cluster.armChaos();
    cluster.runFor(spec.window);
    cluster.finishMetrics();

    report.commits = fleet.totalCommits();
    report.aborts = fleet.totalAborts();
    report.abortPct = fleet.abortRate() * 100.0;
    report.latency = fleet.mergedLatency();
    report.avgSkewNs = cluster.avgClientSkew();
    report.client = cluster.clientStats();
    report.server = cluster.serverStats();
    report.network = cluster.network().stats();
    report.clock = cluster.clockStats();
    report.backend = cluster.backendStats();
    report.device = cluster.deviceStats();
    return report;
}

} // namespace workload
