/**
 * @file
 * Reproduces Figure 6: transaction abort rate vs number of clients,
 * single-version FTL (SFTL) vs multi-version FTL (MFTL), on a single
 * node with zero clock skew, for several Retwis contention levels.
 *
 * Paper shape: with multi-versioning, tardy read-only transactions
 * read from a consistent snapshot and commit, so MFTL's abort rate
 * stays well below SFTL's, and the gap widens with contention.
 *
 * Extra flags beyond the common set:
 *   --jobs=N              run sweep cells on N worker threads (see
 *                         sweep_runner.hh; output is identical for
 *                         any N, including the --json report)
 *   --trace=PATH          rerun one cell with tracing on and dump the
 *                         event log (.csv extension = CSV, else JSON)
 *   --perfetto=PATH       same rerun, exported as Chrome/Perfetto
 *                         trace-event JSON (combines with --trace)
 *   --monitor             run the online invariant monitor over the
 *                         traced cell; violations exit non-zero
 *   --trace-alpha=F       traced cell contention (default 0.8)
 *   --trace-clients=N     traced cell client count (default 16)
 *   --trace-capacity=N    trace ring size in events (default 262144)
 *   --metrics=PATH        rerun the same cell with the time-series
 *                         metrics plane on and write milana-metrics-v1
 *                         JSON to PATH plus a sibling CSV; the
 *                         deterministic sections are byte-identical
 *                         across runs of one seed
 *   --metrics-interval=D  sampling window (default 100ms; accepts
 *                         ns/us/ms/s suffixes)
 * The traced cell's full client/server StatSets are embedded in the
 * --json report so tools/trace_report output can be cross-checked
 * against the txn.abort.<reason> counters.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "common/invariant_monitor.hh"
#include "common/trace.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;

namespace {

struct CellResult
{
    double abortPct = 0.0;
    /** Real (host) seconds spent bulk-loading the key space; reported
     *  separately on stdout, never mixed into the measured window. */
    double populateSeconds = 0.0;
    common::StatSet clientStats;
    common::StatSet serverStats;
};

CellResult
runCell(BackendKind backend, std::uint32_t clients, double alpha,
        std::uint64_t keys, common::Duration warmup,
        common::Duration measure, std::uint64_t seed,
        common::TraceLog *trace = nullptr,
        common::MetricsRegistry *metrics = nullptr)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1; // single VM: storage layer + clients
    cfg.numClients = clients;
    cfg.backend = backend;
    cfg.clocks = ClockKind::Perfect; // eliminates clock skew
    cfg.numKeys = keys;
    cfg.seed = seed;
    cfg.trace = trace;
    cfg.metrics = metrics;
    // Same-machine "network": IPC-scale latency.
    cfg.net.oneWayMean = 5 * common::kMicrosecond;
    cfg.net.oneWaySigma = 1 * common::kMicrosecond;
    cfg.net.minLatency = 1 * common::kMicrosecond;

    Cluster cluster(cfg);
    const auto populate_start = std::chrono::steady_clock::now();
    cluster.populate();
    const double populate_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      populate_start)
            .count();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = alpha;
    retwis.numKeys = keys;
    retwis.seed = seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + warmup);
    fleet.resetMeasurement();
    cluster.resetStats(); // align counters with the measured window
    cluster.runFor(measure);
    cluster.finishMetrics();

    CellResult result;
    result.abortPct = fleet.abortRate() * 100.0;
    result.populateSeconds = populate_secs;
    result.clientStats = cluster.clientStats();
    result.serverStats = cluster.serverStats();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys =
        args.getInt("keys", args.has("full") ? 2'000'000 : 20'000);
    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure =
        args.getInt("seconds", args.has("full") ? 60 : 4) * kSecond;
    const std::uint64_t seed = args.getInt("seed", 1);

    bench::Report report("fig6_abort_vs_clients");
    report.params()
        .set("keys", keys)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure))
        .set("seed", seed)
        .set("full", args.has("full"));
    // --jobs is deliberately NOT a report param: the report must be
    // byte-identical for every job count.

    bench::printHeader(
        "Figure 6: Transaction abort rate (%) vs number of clients\n"
        "single node, zero clock skew, Retwis; SFTL = single-version,\n"
        "MFTL = multi-version");
    std::printf("%7s %9s | %8s %8s | %8s %8s\n", "alpha", "clients",
                "SFTL", "MFTL", "", "MFTL/SFTL");
    std::printf("------------------+-------------------+-----------\n");

    struct Cell
    {
        double alpha;
        std::uint32_t clients;
        BackendKind backend;
    };
    // --alpha=F / --clients=N restrict the sweep to matching cells —
    // the single-cell path for paper-scale runs (e.g. --keys=2000000
    // --alpha=0.8 --clients=16). Absent, the full grid runs and the
    // --json report is unchanged.
    const std::string only_alpha = args.getString("alpha", "");
    const std::string only_clients = args.getString("clients", "");
    std::vector<Cell> cells;
    for (double alpha : {0.6, 0.8, 0.99}) {
        if (!only_alpha.empty() &&
            std::abs(alpha - std::atof(only_alpha.c_str())) > 1e-9)
            continue;
        for (std::uint32_t clients : {4u, 8u, 16u, 32u}) {
            if (!only_clients.empty() &&
                clients != static_cast<std::uint32_t>(
                               std::atoll(only_clients.c_str())))
                continue;
            cells.push_back({alpha, clients, BackendKind::SingleVersion});
            cells.push_back({alpha, clients, BackendKind::Mftl});
        }
    }
    if (cells.empty()) {
        std::fprintf(stderr,
                     "error: --alpha/--clients matched no grid cell\n");
        return 1;
    }

    bench::SweepRunner runner(bench::jobsFromArgs(args));
    std::vector<double> abortPct(cells.size());
    std::vector<double> populateSecs(cells.size());
    runner.run(cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        const CellResult r = runCell(c.backend, c.clients, c.alpha,
                                     keys, warmup, measure, seed);
        abortPct[i] = r.abortPct;
        populateSecs[i] = r.populateSeconds;
    });

    // Cells come in SFTL/MFTL pairs per (alpha, clients) coordinate.
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        const Cell &c = cells[i];
        const double sftl = abortPct[i];
        const double mftl = abortPct[i + 1];
        std::printf("%7.2f %9u | %7.2f%% %7.2f%% | %8.2f\n", c.alpha,
                    c.clients, sftl, mftl,
                    sftl > 0 ? mftl / sftl : 0.0);
        auto &row = report.addRow();
        row.set("alpha", c.alpha)
            .set("clients", c.clients)
            .set("sftl_abort_pct", sftl)
            .set("mftl_abort_pct", mftl);
    }
    double populate_total = 0;
    for (const double s : populateSecs)
        populate_total += s;
    std::printf("\npopulate wall-clock: %.2f s total across %zu cells "
                "(bulk load, excluded from the measured window)\n",
                populate_total, cells.size());
    std::printf(
        "\nPaper (Figure 6): multi-versioning cuts abort rates because\n"
        "tardy read-only transactions commit from a snapshot; the gap\n"
        "grows with contention and client count.\n");

    const std::string trace_path = args.getString("trace", "");
    const std::string perfetto_path = args.getString("perfetto", "");
    const std::string metrics_path = args.getString("metrics", "");
    const bool monitor_on = args.has("monitor");
    bool monitor_failed = false;
    if (!trace_path.empty() || !perfetto_path.empty() ||
        !metrics_path.empty() || monitor_on) {
        const double trace_alpha = args.getDouble("trace-alpha", 0.8);
        const auto trace_clients = static_cast<std::uint32_t>(
            args.getInt("trace-clients", 16));
        common::TraceLog log(static_cast<std::size_t>(
            args.getInt("trace-capacity", 262'144)));
        common::InvariantMonitor monitor(
            [] {
                common::InvariantMonitor::Config mcfg;
                // The traced cell is MFTL (multi-version), so the
                // snapshot-read check is sound; single replica, so
                // the replication check stays off.
                mcfg.checkSnapshotReads = true;
                mcfg.checkReplicationBeforeAck = false;
                return mcfg;
            }(),
            &std::cerr);
        if (monitor_on)
            monitor.attach(log);
        std::unique_ptr<common::MetricsRegistry> metrics;
        if (!metrics_path.empty())
            metrics = std::make_unique<common::MetricsRegistry>(
                args.getDuration("metrics-interval",
                                 100 * common::kMillisecond));
        std::printf("\ntracing one MFTL cell (alpha=%.2f, %u clients)"
                    "...\n",
                    trace_alpha, trace_clients);
        const CellResult cell =
            runCell(BackendKind::Mftl, trace_clients, trace_alpha, keys,
                    warmup, measure, seed,
                    (trace_path.empty() && perfetto_path.empty() &&
                     !monitor_on)
                        ? nullptr
                        : &log,
                    metrics.get());
        if (!trace_path.empty()) {
            std::ofstream os(trace_path);
            if (!os) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
                return 1;
            }
            if (trace_path.size() >= 4 &&
                trace_path.compare(trace_path.size() - 4, 4, ".csv") ==
                    0)
                log.writeCsv(os);
            else
                log.writeJson(os);
            std::printf("wrote %s (%zu events kept, %llu dropped)\n",
                        trace_path.c_str(), log.size(),
                        static_cast<unsigned long long>(log.dropped()));
        }
        if (!perfetto_path.empty()) {
            std::ofstream os(perfetto_path);
            if (!os) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             perfetto_path.c_str());
                return 1;
            }
            log.writePerfetto(os, metrics != nullptr ? &metrics->log()
                                                     : nullptr);
            std::printf("wrote %s (Perfetto trace-event JSON; open at "
                        "ui.perfetto.dev)\n",
                        perfetto_path.c_str());
        }
        if (metrics != nullptr)
            bench::writeMetricsOutputs(metrics->log(), metrics_path);
        if (monitor_on) {
            monitor.report(std::cout);
            monitor_failed = !monitor.ok();
        }
        report.params()
            .set("trace_path", trace_path)
            .set("trace_alpha", trace_alpha)
            .set("trace_clients", trace_clients)
            .set("trace_abort_pct", cell.abortPct);
        report.addStats("traced_cell.client", cell.clientStats,
                        "client.");
        report.addStats("traced_cell.server", cell.serverStats,
                        "server.");
    }

    report.write(args);
    return monitor_failed ? 1 : 0;
}
