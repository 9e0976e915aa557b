/**
 * @file
 * Reproduces Table 1: single-SSD multi-version FTL performance —
 * throughput and average get/put latency for VFTL (separate
 * multi-version KV layer over a generic FTL) vs MFTL (unified
 * multi-version FTL), across GET percentages.
 *
 * Paper shapes to reproduce:
 *  - MFTL wins throughput at read-heavy mixes (up to +45%);
 *  - MFTL GET latency is far lower (up to 7x) under mixed load,
 *    because VFTL's two-level GC floods the device with remap traffic;
 *  - MFTL PUT latency is *higher* (it packs lazily; VFTL's heavier GC
 *    fills pages sooner, shortening the pack wait);
 *  - at the most write-heavy mix the extra GC lets VFTL edge ahead in
 *    throughput.
 *
 * --jobs=N runs sweep cells on N worker threads (sweep_runner.hh);
 * output is identical for any N.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "common/types.hh"
#include "flash/ssd.hh"
#include "ftl/mftl.hh"
#include "ftl/sftl.hh"
#include "ftl/vftl.hh"
#include "sim/simulator.hh"
#include "workload/micro.hh"

using common::kSecond;
using common::toMicros;

namespace {

struct CellResult
{
    double kReqPerSec = 0;
    double getLatencyUs = 0;
    double putLatencyUs = 0;
    /** Real (host) seconds spent in populate — reported separately so
     *  bulk load never pollutes the steady-state numbers. */
    double populateSeconds = 0;
    /** Deterministic data-plane footprint (mapping table + version
     *  arena) per key, from KvBackend::dataPlaneBytes(). */
    double bytesPerKey = 0;
};

CellResult
runCell(bool unified, double get_percent, std::uint64_t keys,
        std::uint32_t workers, common::Duration warmup,
        common::Duration measure, std::uint64_t seed)
{
    sim::Simulator sim;
    const auto data_bytes = keys * flash::kRecordSize;
    flash::SsdDevice ssd(sim, flash::Geometry::scaledFor(data_bytes, 0.35));

    std::unique_ptr<ftl::Sftl> sftl;
    std::unique_ptr<ftl::KvBackend> backend;
    if (unified) {
        backend = std::make_unique<ftl::Mftl>(sim, ssd, ftl::Mftl::Config{});
    } else {
        sftl = std::make_unique<ftl::Sftl>(sim, ssd);
        backend =
            std::make_unique<ftl::Vftl>(sim, *sftl, ftl::Vftl::Config{});
    }

    workload::MicroConfig cfg;
    cfg.getPercent = get_percent;
    cfg.numKeys = keys;
    cfg.workers = workers;
    cfg.seed = seed;
    workload::MicroBench micro(sim, *backend, cfg);
    // Populate drains the simulator, so the FTLs' periodic background
    // sweeps must start only afterwards.
    const auto populate_start = std::chrono::steady_clock::now();
    micro.populate();
    const double populate_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      populate_start)
            .count();
    backend->start();
    micro.start();
    sim.runUntil(sim.now() + warmup);
    micro.resetMeasurement();
    sim.runFor(measure);

    CellResult r;
    r.kReqPerSec = micro.throughput(measure) / 1000.0;
    r.getLatencyUs = toMicros(
        static_cast<common::Duration>(micro.getLatency().mean()));
    r.putLatencyUs = toMicros(
        static_cast<common::Duration>(micro.putLatency().mean()));
    r.populateSeconds = populate_secs;
    r.bytesPerKey = static_cast<double>(backend->dataPlaneBytes()) /
                    static_cast<double>(keys);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys =
        args.getInt("keys", args.has("full") ? 2'000'000 : 60'000);
    const auto warmup =
        args.getInt("warmup", 1) * kSecond;
    const auto measure =
        args.getInt("seconds", args.has("full") ? 30 : 2) * kSecond;
    const std::uint64_t seed = args.getInt("seed", 1);
    const std::uint32_t workers =
        static_cast<std::uint32_t>(args.getInt("workers", 64));

    bench::Report report("table1_ftl_perf", args.getString("json", ""));
    report.params()
        .set("keys", keys)
        .set("workers", workers)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure))
        .set("seed", seed)
        .set("full", args.has("full"));
    // Opt-in so the default report stays byte-identical across
    // revisions; with --mem each row gains deterministic data-plane
    // bytes/key from the table + arena accounting.
    const bool mem = args.has("mem");
    if (mem)
        report.params().set("mem", true);

    bench::printHeader(
        "Table 1: Single SSD Multi-version FTL Performance\n"
        "(throughput in kilo-requests/sec; latency in microseconds)");
    std::printf("%6s | %9s %9s | %9s %9s | %9s %9s\n", "Get %",
                "VFTL", "MFTL", "VFTL get", "MFTL get", "VFTL put",
                "MFTL put");
    std::printf("-------+---------------------+---------------------+"
                "--------------------\n");

    const std::vector<double> getPcts = {100.0, 75.0, 50.0, 25.0};
    bench::SweepRunner runner(bench::jobsFromArgs(args));
    args.rejectUnknown();
    std::vector<CellResult> vftlCells(getPcts.size());
    std::vector<CellResult> mftlCells(getPcts.size());
    runner.run(getPcts.size() * 2, [&](std::size_t i) {
        const bool unified = (i % 2 != 0);
        CellResult r = runCell(unified, getPcts[i / 2], keys, workers,
                               warmup, measure, seed);
        (unified ? mftlCells : vftlCells)[i / 2] = r;
    });

    double populate_total = 0;
    for (std::size_t i = 0; i < getPcts.size(); ++i) {
        const double get_pct = getPcts[i];
        const CellResult &vftl = vftlCells[i];
        const CellResult &mftl = mftlCells[i];
        populate_total += vftl.populateSeconds + mftl.populateSeconds;
        std::printf(
            "%6.0f | %9.0f %9.0f | %9.1f %9.1f | %9.1f %9.1f\n",
            get_pct, vftl.kReqPerSec, mftl.kReqPerSec,
            vftl.getLatencyUs, mftl.getLatencyUs, vftl.putLatencyUs,
            mftl.putLatencyUs);
        auto &row = report.addRow();
        row.set("get_pct", get_pct)
            .set("vftl_kreq_per_sec", vftl.kReqPerSec)
            .set("mftl_kreq_per_sec", mftl.kReqPerSec)
            .set("vftl_get_latency_us", vftl.getLatencyUs)
            .set("mftl_get_latency_us", mftl.getLatencyUs)
            .set("vftl_put_latency_us", vftl.putLatencyUs)
            .set("mftl_put_latency_us", mftl.putLatencyUs);
        if (mem)
            row.set("vftl_bytes_per_key", vftl.bytesPerKey)
                .set("mftl_bytes_per_key", mftl.bytesPerKey);
    }
    if (mem)
        std::printf("\ndata plane: VFTL %.1f B/key, MFTL %.1f B/key "
                    "(at 100%% gets; table + version arena)\n",
                    vftlCells[0].bytesPerKey, mftlCells[0].bytesPerKey);
    std::printf("\npopulate wall-clock: %.2f s total across %zu cells "
                "(bulk load, excluded from the measured window)\n",
                populate_total, getPcts.size() * 2);
    std::printf(
        "\nPaper (Table 1): MFTL up to +45%% throughput and up to 7x\n"
        "lower GET latency on read-heavy mixes; VFTL lower PUT latency\n"
        "(GC remaps shorten its pack wait) and ahead at 25%% gets.\n");
    report.write();
    return 0;
}
