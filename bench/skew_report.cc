/**
 * @file
 * Supporting measurement for section 5.2: realized average and maximum
 * pairwise clock skew for each synchronization discipline. The paper
 * reports 1.51 ms average skew under NTP and 53.2 us under
 * software-timestamped PTP; section 2.1 cites <1 us for hardware PTP
 * and ~150 ns for DTP [37].
 */

#include <cstdio>

#include "bench_util.hh"
#include "clocksync/sync.hh"
#include "sim/simulator.hh"

using clocksync::ClockEnsemble;
using clocksync::SyncConfig;
using common::kSecond;

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const int nodes = static_cast<int>(args.getInt("nodes", 5));
    const int seconds =
        static_cast<int>(args.getInt("seconds", 120));
    const std::uint64_t seed = args.getInt("seed", 42);

    bench::Report report("skew_report", args.getString("json", ""));
    args.rejectUnknown();
    report.params()
        .set("nodes", nodes)
        .set("seconds", seconds)
        .set("seed", seed);

    bench::printHeader(
        "Clock synchronization: realized pairwise skew (section 5.2)");
    std::printf("%10s | %12s | %12s | %10s\n", "discipline",
                "avg skew", "max skew", "paper avg");
    std::printf("-----------+--------------+--------------+----------\n");

    struct Row
    {
        SyncConfig cfg;
        const char *paper;
    };
    const Row rows[] = {
        {SyncConfig::ntp(), "1510 us"},
        {SyncConfig::ptpSoftware(), "53.2 us"},
        {SyncConfig::ptpHardware(), "< 1 us"},
        {SyncConfig::dtp(), "~0.15 us"},
    };

    for (const auto &row : rows) {
        sim::Simulator sim;
        common::Rng rng(seed);
        ClockEnsemble ensemble(sim, static_cast<std::size_t>(nodes),
                               row.cfg, rng);
        ensemble.start();
        sim.runFor(seconds * kSecond);
        std::printf("%10s | %9.2f us | %9.2f us | %10s\n",
                    row.cfg.name.c_str(),
                    ensemble.avgPairwiseSkew() / 1000.0,
                    static_cast<double>(ensemble.maxPairwiseSkew()) /
                        1000.0,
                    row.paper);
        report.addRow()
            .set("discipline", row.cfg.name)
            .set("avg_skew_us", ensemble.avgPairwiseSkew() / 1000.0)
            .set("max_skew_us",
                 static_cast<double>(ensemble.maxPairwiseSkew()) /
                     1000.0)
            .set("exchanges",
                 ensemble.stats().counterValue("clocksync.exchanges"));
    }
    report.write();
    return 0;
}
