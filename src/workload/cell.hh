/**
 * @file
 * One measured cell, the unit of every figure sweep and of milana-sim:
 * build a Cluster, bulk-load it, start it, drive a Retwis fleet over
 * it, warm up, reset every measurement, arm the fault schedule, and
 * measure one window. runCell() is the only copy of that lifecycle,
 * so every number a cell reports covers the same window.
 */

#ifndef WORKLOAD_CELL_HH
#define WORKLOAD_CELL_HH

#include <cstdint>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "workload/cluster.hh"

namespace workload {

struct CellSpec
{
    /** Topology, backend, clocks, net, key space, seed, and the
     *  optional trace, metrics and chaos engine. */
    ClusterConfig cluster;
    /** Retwis mix. Its key space is the cluster's and its seed the
     *  cluster's seed + 100. */
    double alpha = 0.6;
    bool readHeavy = false;
    common::Duration warmup = common::kSecond;
    common::Duration window = 4 * common::kSecond;
};

/** What a cell measured. Everything but populateSeconds covers the
 *  window (and the drain that follows it). */
struct CellReport
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    double abortPct = 0;
    /** Commit latency merged over the fleet. */
    common::Histogram latency;
    /** Average pairwise client clock skew (ns); 0 on perfect clocks. */
    double avgSkewNs = 0;
    /** Host seconds spent bulk-loading the key space. */
    double populateSeconds = 0;
    common::StatSet client;
    common::StatSet server;
    common::StatSet network;
    common::StatSet clock;
    common::StatSet backend;
    common::StatSet device;
};

/**
 * Run one cell: populate, start, Retwis fleet, warm-up, reset of the
 * fleet's and the cluster's measurements, Cluster::armChaos(), the
 * window, Cluster::finishMetrics().
 */
CellReport runCell(const CellSpec &spec);

} // namespace workload

#endif // WORKLOAD_CELL_HH
