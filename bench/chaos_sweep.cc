/**
 * @file
 * Chaos sweep: fault scenarios x workloads x clock presets, each cell
 * a private cluster driven by a deterministic ChaosEngine schedule
 * (docs/CHAOS.md), with the invariant monitor attached throughout.
 *
 * Two oracles gate every cell:
 *  - correctness: zero InvariantMonitor violations (commit-timestamp
 *    monotonicity, snapshot reads, replication-before-ack, SSD queue
 *    bound) no matter what the fault does, and no prepare or CTP
 *    status query below a server's transaction-table truncation
 *    horizon (DESIGN.md argues there is none);
 *  - availability: the abort rate may not degrade beyond a
 *    per-scenario bound over the fault-free baseline with the same
 *    workload and clock preset (crash-induced *failures* are reported
 *    separately and never counted as aborts).
 *
 * The process exits non-zero if any cell breaks either oracle, so CI
 * can gate on it directly.
 *
 * Determinism: every cell derives its seeds from its coordinates and
 * all fault randomness comes from the cell's ChaosEngine streams. The
 * --json report is byte-identical across runs of one seed and for
 * every --jobs value; --jobs is never written into the report.
 *
 * Report schema: "milana-chaos-v1" — params/rows like
 * milana-bench-v1, plus a "summary" verdict object.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sweep_runner.hh"
#include "common/chaos.hh"
#include "common/invariant_monitor.hh"
#include "common/json.hh"
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

struct Scenario
{
    const char *name;
    /** Chaos schedule (times relative to measurement start). */
    const char *schedule;
    /** Needs misbehaving clocks: run under PTP/NTP ensembles only
     *  (clock faults are no-ops with Perfect clocks). Also set for
     *  crash+failover, whose recovery depends on lease timing. */
    bool ensembleOnly = false;
    /** Max allowed abort-rate degradation over baseline, in
     *  percentage points. */
    double boundPp = 10.0;
};

/** The fault vocabulary, one scenario per kind (plus combinations).
 *  Fault windows sit inside [200ms, 700ms] so a 1-second measurement
 *  covers inject + heal + aftermath. */
const Scenario kScenarios[] = {
    {"crash_restart", "at 200ms crash backup:0:0 for 300ms", false,
     10.0},
    {"crash_failover", "at 200ms crash primary:0 failover", true, 25.0},
    {"partition_sym", "at 200ms partition client:2 servers for 250ms",
     false, 10.0},
    {"partition_asym",
     "at 200ms partition node:* client:2 oneway for 250ms", false,
     10.0},
    {"delay_spike", "at 200ms delay all factor=8 for 300ms", false,
     12.0},
    {"clock_step", "at 250ms clock-step clock:0 by=4ms for 300ms", true,
     60.0},
    {"clock_stuck", "at 250ms clock-stuck clock:1 for 300ms", true,
     60.0},
    {"clock_runaway", "at 200ms clock-drift clock:0 ppm=500 for 400ms",
     true, 40.0},
    {"ptp_holdover",
     "at 200ms master-down for 400ms\n"
     "at 250ms clock-drift clock:2 ppm=200 for 300ms",
     true, 40.0},
    {"ssd_slow_channel",
     "at 200ms ssd-slow servers channel=1 factor=20 for 400ms", false,
     15.0},
    {"ssd_read_retry",
     "at 200ms ssd-retry servers prob=0.5 retries=4 for 400ms", false,
     15.0},
    {"ssd_gc_storm", "at 200ms ssd-gc servers for 300ms", false, 15.0},
};

struct WorkloadMix
{
    const char *name;
    double alpha;
    bool readHeavy;
};

const WorkloadMix kWorkloads[] = {
    {"mix", 0.7, false},
    {"readheavy", 0.9, true},
};

/** Baseline presets: every preset any scenario can run under. */
const ClockKind kBaselinePresets[] = {ClockKind::Perfect,
                                      ClockKind::PtpSw, ClockKind::Ntp};

struct CellSpec
{
    const Scenario *scenario; ///< null = fault-free baseline
    const WorkloadMix *mix;
    ClockKind clocks;
};

struct CellResult
{
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t failed = 0;
    std::uint64_t readFailures = 0;
    double abortPct = 0;
    double skewUs = 0;
    std::uint64_t injections = 0;
    std::uint64_t heals = 0;
    std::uint64_t clockSuspectAborts = 0;
    std::uint64_t faultActiveAborts = 0;
    std::uint64_t violations = 0;
    /** Prepares and CTP status queries below a truncation horizon. */
    std::uint64_t belowHorizon = 0;
    /** Late replicated records the truncated table dropped. */
    std::uint64_t lateMerges = 0;
};

CellResult
runCell(const CellSpec &spec, std::size_t cellIndex, std::uint64_t keys,
        common::Duration warmup, common::Duration measure,
        std::uint64_t seed, std::uint64_t chaosSeed)
{
    ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 3;
    cfg.numClients = 8;
    cfg.backend = BackendKind::Mftl;
    cfg.clocks = spec.clocks;
    cfg.numKeys = keys;
    cfg.seed = seed;

    // The monitor observes every append before the ring evicts it, so
    // a small ring loses nothing it checks.
    common::TraceLog trace(1u << 16);
    cfg.trace = &trace;
    common::InvariantMonitor::Config mcfg;
    mcfg.checkSnapshotReads = true;
    mcfg.checkReplicationBeforeAck = true;
    mcfg.failFast = false; // count everything; the sweep fails at exit
    common::InvariantMonitor monitor(mcfg, nullptr);
    monitor.attach(trace);

    common::ChaosEngine chaos(chaosSeed + cellIndex);
    if (spec.scenario != nullptr) {
        std::string error;
        if (!chaos.parse(spec.scenario->schedule, &error)) {
            std::fprintf(stderr, "chaos_sweep: scenario %s: %s\n",
                         spec.scenario->name, error.c_str());
            std::exit(2);
        }
        cfg.chaos = &chaos;
    }

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    RetwisConfig retwis;
    retwis.alpha = spec.mix->alpha;
    retwis.readHeavy = spec.mix->readHeavy;
    retwis.numKeys = keys;
    retwis.seed = seed + 100;
    RetwisWorkload fleet(cluster, retwis);
    fleet.start();

    cluster.runUntil(cluster.now() + warmup);
    fleet.resetMeasurement();
    cluster.resetStats();
    cluster.armChaos();
    cluster.runFor(measure);

    const common::StatSet clients = cluster.clientStats();
    const common::StatSet servers = cluster.serverStats();
    CellResult r;
    r.committed = fleet.totalCommits();
    r.aborted = fleet.totalAborts();
    r.failed = clients.counterValue("txn.failed");
    r.readFailures = clients.counterValue("txn.read_failures");
    r.abortPct = fleet.abortRate() * 100.0;
    r.skewUs = cluster.avgClientSkew() / 1000.0;
    r.injections = chaos.injections();
    r.heals = chaos.heals();
    r.clockSuspectAborts =
        servers.counterValue("milana.abort_clock_suspect");
    r.faultActiveAborts =
        clients.counterValue("txn.fault_active_aborts");
    r.violations = monitor.violationCount();
    r.belowHorizon =
        servers.counterValue("milana.txn_table.below_horizon_prepare") +
        servers.counterValue("milana.txn_table.below_horizon_status");
    r.lateMerges =
        servers.counterValue("milana.txn_table.below_horizon_merge");
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::uint64_t keys = args.getInt("keys", 4'000);
    const auto warmup = args.getInt("warmup", 1) * kSecond;
    const auto measure = args.getInt("seconds", 1) * kSecond;
    const std::uint64_t seed = args.getInt("seed", 1);
    const std::uint64_t chaosSeed = args.getInt("chaos-seed", 42);

    // Cell list: fault-free baselines first (one per preset x
    // workload), then every scenario under its two eligible presets.
    std::vector<CellSpec> cells;
    for (const WorkloadMix &mix : kWorkloads)
        for (ClockKind preset : kBaselinePresets)
            cells.push_back({nullptr, &mix, preset});
    for (const Scenario &scenario : kScenarios) {
        const ClockKind presetA =
            scenario.ensembleOnly ? ClockKind::PtpSw
                                  : ClockKind::Perfect;
        const ClockKind presetB =
            scenario.ensembleOnly ? ClockKind::Ntp : ClockKind::PtpSw;
        for (const WorkloadMix &mix : kWorkloads) {
            cells.push_back({&scenario, &mix, presetA});
            cells.push_back({&scenario, &mix, presetB});
        }
    }

    bench::printHeader(
        "Chaos sweep: fault scenarios x workloads x clock presets\n"
        "oracles: zero invariant violations; abort degradation within "
        "per-scenario bound");

    bench::SweepRunner runner(bench::jobsFromArgs(args));
    std::vector<CellResult> results(cells.size());
    runner.run(cells.size(), [&](std::size_t i) {
        results[i] = runCell(cells[i], i, keys, warmup, measure, seed,
                             chaosSeed);
    });

    // Baseline lookup: abort rate of the fault-free cell with the same
    // workload and preset.
    const auto baselineFor = [&](const CellSpec &spec) -> double {
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].scenario == nullptr &&
                cells[i].mix == spec.mix &&
                cells[i].clocks == spec.clocks)
                return results[i].abortPct;
        return 0.0;
    };

    std::printf("%-16s %-9s %-8s | %8s %8s %7s | %7s %9s | %4s %5s | "
                "%s\n",
                "scenario", "workload", "clocks", "commit", "abort",
                "failed", "abort%", "baseline%", "inj", "viol",
                "verdict");
    std::printf("-----------------------------------------------------"
                "---------------------------------------------\n");

    bench::KvList params;
    params.set("keys", keys)
        .set("warmup_s", common::toSeconds(warmup))
        .set("seconds", common::toSeconds(measure))
        .set("seed", seed)
        .set("chaos_seed", chaosSeed)
        .set("scenarios",
             static_cast<std::int64_t>(std::size(kScenarios)))
        .set("workloads",
             static_cast<std::int64_t>(std::size(kWorkloads)))
        .set("clock_presets",
             static_cast<std::int64_t>(std::size(kBaselinePresets)));

    std::vector<bench::KvList> rows;
    std::uint64_t violations = 0;
    std::uint64_t breaches = 0;
    std::uint64_t below_horizon = 0;
    std::uint64_t late_merges = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = cells[i];
        const CellResult &r = results[i];
        const bool baseline = spec.scenario == nullptr;
        const double base = baseline ? r.abortPct : baselineFor(spec);
        const double bound = baseline ? 0.0 : spec.scenario->boundPp;
        const double degradation = r.abortPct - base;
        const bool boundOk = baseline || degradation <= bound;
        const bool ok =
            boundOk && r.violations == 0 && r.belowHorizon == 0;
        violations += r.violations;
        below_horizon += r.belowHorizon;
        late_merges += r.lateMerges;
        if (!boundOk)
            ++breaches;

        const char *name = baseline ? "none" : spec.scenario->name;
        const char *clocks = workload::clockName(spec.clocks);
        std::printf("%-16s %-9s %-8s | %8llu %8llu %7llu | %6.2f%% "
                    "%8.2f%% | %4llu %5llu | %s\n",
                    name, spec.mix->name, clocks,
                    static_cast<unsigned long long>(r.committed),
                    static_cast<unsigned long long>(r.aborted),
                    static_cast<unsigned long long>(r.failed),
                    r.abortPct, base,
                    static_cast<unsigned long long>(r.injections),
                    static_cast<unsigned long long>(r.violations),
                    ok ? "ok" : "FAIL");

        rows.emplace_back();
        rows.back()
            .set("scenario", name)
            .set("workload", spec.mix->name)
            .set("clocks", clocks)
            .set("committed", r.committed)
            .set("aborted", r.aborted)
            .set("failed", r.failed)
            .set("read_failures", r.readFailures)
            .set("abort_pct", r.abortPct)
            .set("baseline_abort_pct", base)
            .set("degradation_pp", baseline ? 0.0 : degradation)
            .set("bound_pp", bound)
            .set("avg_skew_us", r.skewUs)
            .set("injections", r.injections)
            .set("heals", r.heals)
            .set("clock_suspect_aborts", r.clockSuspectAborts)
            .set("fault_active_aborts", r.faultActiveAborts)
            .set("violations", r.violations)
            .set("pass", ok);
    }

    const bool pass =
        violations == 0 && breaches == 0 && below_horizon == 0;
    std::printf("\n%zu cells; %llu invariant violations, %llu abort-"
                "bound breaches, %llu below-horizon prepares/queries "
                "(%llu late records dropped) -> %s\n",
                cells.size(),
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(breaches),
                static_cast<unsigned long long>(below_horizon),
                static_cast<unsigned long long>(late_merges),
                pass ? "PASS" : "FAIL");

    const std::string path = args.getString("json", "");
    if (!path.empty()) {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        common::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("milana-chaos-v1");
        w.key("bench").value("chaos_sweep");
        w.key("params");
        params.writeTo(w);
        w.key("rows").beginArray();
        for (const bench::KvList &row : rows)
            row.writeTo(w);
        w.endArray();
        w.key("summary").beginObject();
        w.key("cells").value(static_cast<std::int64_t>(cells.size()));
        w.key("violations").value(static_cast<std::int64_t>(violations));
        w.key("bound_breaches").value(static_cast<std::int64_t>(breaches));
        w.key("pass").value(pass);
        w.endObject();
        w.endObject();
        os << "\n";
        std::printf("wrote %s\n", path.c_str());
    }

    return pass ? 0 : 1;
}
