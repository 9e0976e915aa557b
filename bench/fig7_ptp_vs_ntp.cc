/**
 * @file
 * Reproduces Figure 7: MILANA transaction abort rates, PTP vs NTP
 * clock synchronization, across Retwis contention levels, for the
 * three storage backends (DRAM, VFTL, MFTL).
 *
 * Setup mirrors the paper: one shard with 1 primary + 2 backups,
 * 20 Retwis client instances (each with its own disciplined clock),
 * retry-same-keys on abort.
 *
 * Paper shapes:
 *  - PTP aborts well below NTP everywhere (up to 43% lower);
 *  - under NTP the DRAM backend is worst: its fast writes make the
 *    millisecond skew dominate (Figure 1's epsilon >> t_w);
 *  - VFTL slightly worse than MFTL (lower effective write latency).
 * Also prints the realized average client skew per discipline
 * (paper: NTP 1.51 ms, software PTP 53.2 us).
 *
 * --jobs=N runs sweep cells on N worker threads (sweep_runner.hh);
 * output is identical for any N.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "workload/cell.hh"

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;

namespace {

struct Cell
{
    double abortPct = 0;
    double skewUs = 0;
};

Cell
runCell(BackendKind backend, ClockKind clocks, double alpha,
        std::uint64_t keys, std::uint32_t clients,
        common::Duration warmup, common::Duration measure,
        std::uint64_t seed)
{
    workload::CellSpec spec;
    spec.cluster.numShards = 1;
    spec.cluster.replicasPerShard = 3; // 1 primary + 2 backups (paper)
    spec.cluster.numClients = clients;
    spec.cluster.backend = backend;
    spec.cluster.clocks = clocks;
    spec.cluster.numKeys = keys;
    spec.cluster.seed = seed;
    spec.alpha = alpha;
    spec.warmup = warmup;
    spec.window = measure;
    const workload::CellReport r = workload::runCell(spec);
    return {r.abortPct, r.avgSkewNs / 1000.0};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys =
        args.getInt("keys", args.has("full") ? 2'000'000 : 20'000);
    const std::uint32_t clients =
        static_cast<std::uint32_t>(args.getInt("clients", 20));
    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure =
        args.getInt("seconds", args.has("full") ? 60 : 4) * kSecond;
    const std::uint64_t seed = args.getInt("seed", 1);

    bench::Report report("fig7_ptp_vs_ntp", args.getString("json", ""));
    report.params()
        .set("keys", keys)
        .set("clients", clients)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure))
        .set("seed", seed)
        .set("full", args.has("full"));

    bench::printHeader(
        "Figure 7: PTP vs NTP — MILANA transaction abort rates (%)\n"
        "1 primary + 2 backups, 20 Retwis instances, "
        "retry-same-keys");
    std::printf("%7s | %15s | %15s | %15s\n", "", "DRAM", "VFTL",
                "MFTL");
    std::printf("%7s | %7s %7s | %7s %7s | %7s %7s\n", "alpha", "PTP",
                "NTP", "PTP", "NTP", "PTP", "NTP");
    std::printf("--------+-----------------+-----------------+"
                "----------------\n");

    struct Coord
    {
        double alpha;
        BackendKind backend;
    };
    std::vector<Coord> coords;
    for (double alpha : {0.5, 0.7, 0.9, 0.99}) {
        for (BackendKind backend :
             {BackendKind::Dram, BackendKind::Vftl, BackendKind::Mftl})
            coords.push_back({alpha, backend});
    }

    bench::SweepRunner runner(bench::jobsFromArgs(args));
    args.rejectUnknown();
    std::vector<Cell> ptpCells(coords.size());
    std::vector<Cell> ntpCells(coords.size());
    runner.run(coords.size() * 2, [&](std::size_t i) {
        const Coord &c = coords[i / 2];
        const ClockKind clocks =
            (i % 2 == 0) ? ClockKind::PtpSw : ClockKind::Ntp;
        Cell cell = runCell(c.backend, clocks, c.alpha, keys, clients,
                            warmup, measure, seed);
        ((i % 2 == 0) ? ptpCells : ntpCells)[i / 2] = cell;
    });

    for (std::size_t row = 0; row < coords.size(); row += 3) {
        for (std::size_t b = 0; b < 3; ++b) {
            const Coord &c = coords[row + b];
            report.addRow()
                .set("alpha", c.alpha)
                .set("backend", workload::backendName(c.backend))
                .set("ptp_abort_pct", ptpCells[row + b].abortPct)
                .set("ntp_abort_pct", ntpCells[row + b].abortPct)
                .set("ptp_skew_us", ptpCells[row + b].skewUs)
                .set("ntp_skew_us", ntpCells[row + b].skewUs);
        }
        std::printf(
            "%7.2f | %6.2f%% %6.2f%% | %6.2f%% %6.2f%% | %6.2f%% "
            "%6.2f%%\n",
            coords[row].alpha, ptpCells[row].abortPct,
            ntpCells[row].abortPct, ptpCells[row + 1].abortPct,
            ntpCells[row + 1].abortPct, ptpCells[row + 2].abortPct,
            ntpCells[row + 2].abortPct);
    }
    // Matches the serial loop's behaviour: the skew summary comes from
    // the last cell run (alpha=0.99, MFTL).
    const double skew_ptp = ptpCells.back().skewUs;
    const double skew_ntp = ntpCells.back().skewUs;
    std::printf("\nRealized average client skew: PTP %.1f us, NTP %.1f "
                "us\n(paper section 5.2: PTP-sw 53.2 us, NTP 1510 "
                "us)\n",
                skew_ptp, skew_ntp);
    std::printf(
        "Paper (Figure 7): PTP's tighter sync lowers abort rates (up\n"
        "to 43%%); NTP hurts most on the fastest backend (DRAM).\n");
    report.write();
    return 0;
}
