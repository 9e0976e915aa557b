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
 *                         event log as milana-trace-v2 JSON
 *   --perfetto=PATH       same rerun, exported as Chrome/Perfetto
 *                         trace-event JSON (combines with --trace)
 *   --monitor             run the online invariant monitor over the
 *                         traced cell; violations exit non-zero
 *   --trace-alpha=F       traced cell contention (default 0.8)
 *   --trace-clients=N     traced cell client count (default 16)
 *   --trace-capacity=N    trace ring size in events (default 262144)
 *   --metrics=PATH        rerun the same cell with the time-series
 *                         metrics plane on and write milana-metrics-v1
 *                         JSON to PATH, byte-identical across runs of
 *                         one seed
 *   --metrics-interval=D  sampling window (default 100ms; accepts
 *                         ns/us/ms/s suffixes)
 * The traced cell's full client/server StatSets are embedded in the
 * --json report so tools/trace_report output can be cross-checked
 * against the txn.abort.<reason> counters.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "workload/cell.hh"

using common::kSecond;
using workload::BackendKind;
using workload::CellReport;
using workload::CellSpec;
using workload::ClockKind;

namespace {

/** One single-node, zero-skew Retwis cell. */
CellSpec
fig6Cell(BackendKind backend, std::uint32_t clients, double alpha,
         std::uint64_t keys, common::Duration warmup,
         common::Duration measure, std::uint64_t seed)
{
    CellSpec spec;
    spec.cluster.numShards = 1;
    spec.cluster.replicasPerShard = 1; // single VM: storage + clients
    spec.cluster.numClients = clients;
    spec.cluster.backend = backend;
    spec.cluster.clocks = ClockKind::Perfect; // eliminates clock skew
    spec.cluster.numKeys = keys;
    spec.cluster.seed = seed;
    // Same-machine "network": IPC-scale latency.
    spec.cluster.net.oneWayMean = 5 * common::kMicrosecond;
    spec.cluster.net.oneWaySigma = 1 * common::kMicrosecond;
    spec.cluster.net.minLatency = 1 * common::kMicrosecond;
    spec.alpha = alpha;
    spec.warmup = warmup;
    spec.window = measure;
    return spec;
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

    bench::Report report("fig6_abort_vs_clients",
                         args.getString("json", ""));
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
    const double only_alpha = args.getDouble("alpha", -1.0);
    const std::int64_t only_clients = args.getInt("clients", -1);
    std::vector<Cell> cells;
    for (double alpha : {0.6, 0.8, 0.99}) {
        if (only_alpha >= 0 && std::abs(alpha - only_alpha) > 1e-9)
            continue;
        for (std::uint32_t clients : {4u, 8u, 16u, 32u}) {
            if (only_clients >= 0 && clients != only_clients)
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

    const double trace_alpha = args.getDouble("trace-alpha", 0.8);
    const auto trace_clients =
        static_cast<std::uint32_t>(args.getInt("trace-clients", 16));
    CellSpec traced = fig6Cell(BackendKind::Mftl, trace_clients,
                               trace_alpha, keys, warmup, measure, seed);
    const bench::Observers observers(args, traced.cluster);

    bench::SweepRunner runner(bench::jobsFromArgs(args));
    args.rejectUnknown();
    std::vector<double> abortPct(cells.size());
    std::vector<double> populateSecs(cells.size());
    runner.run(cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i];
        const CellReport r = workload::runCell(fig6Cell(
            c.backend, c.clients, c.alpha, keys, warmup, measure, seed));
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

    bool monitor_failed = false;
    if (observers.any()) {
        std::printf("\ntracing one MFTL cell (alpha=%.2f, %u clients)"
                    "...\n",
                    trace_alpha, trace_clients);
        const CellReport cell = workload::runCell(traced);
        monitor_failed = !observers.finish();
        report.params()
            .set("trace_path", args.getString("trace", ""))
            .set("trace_alpha", trace_alpha)
            .set("trace_clients", trace_clients)
            .set("trace_abort_pct", cell.abortPct);
        report.addStats("traced_cell.client", cell.client, "client.");
        report.addStats("traced_cell.server", cell.server, "server.");
    }

    report.write();
    return monitor_failed ? 1 : 0;
}
