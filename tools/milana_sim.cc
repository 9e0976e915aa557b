/**
 * @file
 * milana_sim — command-line scenario runner for the simulated
 * MILANA/SEMEL stack. Builds an arbitrary topology, drives a Retwis
 * fleet, optionally replays a chaos fault schedule, and reports
 * throughput, latency, abort rates, skew, and (on request) the full
 * stat dump of every component.
 *
 * Examples:
 *   # the paper's Figure 7 point, by hand:
 *   milana_sim --shards=1 --replicas=3 --clients=20 --backend=mftl \
 *              --clocks=ntp --alpha=0.9 --seconds=5
 *
 *   # kill shard 0's primary two seconds in, watch recovery:
 *   echo 'at 2s crash primary:0 failover' > crash.chaos
 *   milana_sim --shards=2 --replicas=3 --chaos=crash.chaos --seconds=8
 *
 *   # everything the simulator knows, for debugging:
 *   milana_sim --seconds=2 --dump-stats
 */

#include <cstdio>
#include <memory>
#include <string>

#include "../bench/bench_util.hh"
#include "common/chaos.hh"
#include "workload/cell.hh"

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;

namespace {

BackendKind
parseBackend(const std::string &name)
{
    if (name == "dram")
        return BackendKind::Dram;
    if (name == "mftl")
        return BackendKind::Mftl;
    if (name == "vftl")
        return BackendKind::Vftl;
    if (name == "sftl")
        return BackendKind::SingleVersion;
    std::fprintf(stderr, "unknown backend '%s' "
                         "(dram|mftl|vftl|sftl)\n",
                 name.c_str());
    std::exit(2);
}

ClockKind
parseClocks(const std::string &name)
{
    if (name == "perfect")
        return ClockKind::Perfect;
    if (name == "ptp")
        return ClockKind::PtpSw;
    if (name == "ptp-hw")
        return ClockKind::PtpHw;
    if (name == "ntp")
        return ClockKind::Ntp;
    if (name == "dtp")
        return ClockKind::Dtp;
    std::fprintf(stderr, "unknown clocks '%s' "
                         "(perfect|ptp|ptp-hw|ntp|dtp)\n",
                 name.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    if (args.has("help")) {
        std::printf(
            "usage: milana_sim [options]\n"
            "  --shards=N --replicas=N --clients=N --keys=N --seed=N\n"
            "  --backend=dram|mftl|vftl|sftl   --clocks=perfect|ptp|"
            "ptp-hw|ntp|dtp\n"
            "  --alpha=F (Zipf contention)     --read-heavy (75%% "
            "read-only mix)\n"
            "  --no-local-validation           --centiman\n"
            "  --seconds=N --warmup=N\n"
            "  --chaos=PATH (fault schedule, see docs/CHAOS.md; armed\n"
            "                when measurement starts — times are "
            "relative\n"
            "                to the end of warmup)\n"
            "  --chaos-seed=N (fault-randomness seed, default 42)\n"
            "  --dump-stats\n"
            "  --json=PATH  (milana-bench-v1 report with full stat "
            "sets)\n"
            "  --trace=PATH (milana-trace-v2 JSON event trace)\n"
            "  --trace-capacity=N (trace ring size, default 262144)\n"
            "  --perfetto=PATH (Chrome/Perfetto trace-event JSON)\n"
            "  --monitor (online invariant checks; violations exit 1)\n"
            "  --metrics=PATH (milana-metrics-v1 time-series JSON; feed\n"
            "                  to tools/metrics-report)\n"
            "  --metrics-interval=D (sampling window, default 100ms;\n"
            "                        ns/us/ms/s suffixes)\n");
        return 0;
    }

    workload::CellSpec spec;
    workload::ClusterConfig &cfg = spec.cluster;
    cfg.numShards = static_cast<std::uint32_t>(args.getInt("shards", 3));
    cfg.replicasPerShard =
        static_cast<std::uint32_t>(args.getInt("replicas", 3));
    cfg.numClients =
        static_cast<std::uint32_t>(args.getInt("clients", 20));
    cfg.numKeys = static_cast<std::uint64_t>(args.getInt("keys", 50'000));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.backend = parseBackend(args.getString("backend", "mftl"));
    cfg.clocks = parseClocks(args.getString("clocks", "ptp"));
    cfg.localValidation = !args.has("no-local-validation");
    cfg.centiman = args.has("centiman");
    spec.alpha = args.getDouble("alpha", 0.6);
    spec.readHeavy = args.has("read-heavy");
    spec.warmup = args.getInt("warmup", 1) * kSecond;
    spec.window = args.getInt("seconds", 5) * kSecond;

    const std::string chaos_path = args.getString("chaos", "");
    const std::int64_t chaos_seed = args.getInt("chaos-seed", 42);
    std::unique_ptr<common::ChaosEngine> chaos;
    if (!chaos_path.empty()) {
        chaos = std::make_unique<common::ChaosEngine>(
            static_cast<std::uint64_t>(chaos_seed));
        std::string error;
        if (!chaos->parseFile(chaos_path, &error)) {
            std::fprintf(stderr, "error: %s: %s\n", chaos_path.c_str(),
                         error.c_str());
            return 2;
        }
        cfg.chaos = chaos.get();
    }
    const bench::Observers observers(args, cfg);
    const bool dump_stats = args.has("dump-stats");
    bench::Report report("milana_sim", args.getString("json", ""));
    args.rejectUnknown();

    std::printf("milana_sim: %u shard(s) x %u replica(s), %u clients, "
                "%s backend, %s clocks, alpha=%.2f%s%s\n",
                cfg.numShards, cfg.replicasPerShard, cfg.numClients,
                workload::backendName(cfg.backend),
                workload::clockName(cfg.clocks), spec.alpha,
                cfg.localValidation ? "" : ", LV off",
                cfg.centiman ? ", centiman validation" : "");
    std::printf("populating %llu keys...\n",
                static_cast<unsigned long long>(cfg.numKeys));
    if (chaos != nullptr) {
        // Armed when the window starts: schedule times are relative
        // to the end of warmup, so population and warmup run
        // fault-free.
        std::printf("chaos: %zu fault(s) from %s (seed %lld), armed "
                    "after warmup\n",
                    chaos->faultCount(), chaos_path.c_str(),
                    static_cast<long long>(chaos_seed));
    }
    const workload::CellReport r = workload::runCell(spec);

    const double seconds = common::toSeconds(spec.window);
    const common::Histogram &latency = r.latency;
    std::printf("\n=== results (%.0fs measured after %.0fs warmup) ===\n",
                seconds, common::toSeconds(spec.warmup));
    std::printf("committed:  %10llu  (%.0f txn/s)\n",
                static_cast<unsigned long long>(r.commits),
                static_cast<double>(r.commits) / seconds);
    std::printf("aborted:    %10llu  (abort rate %.2f%%)\n",
                static_cast<unsigned long long>(r.aborts), r.abortPct);
    std::printf("latency:    mean %.2f ms, p50 %.2f, p95 %.2f, p99 "
                "%.2f\n",
                common::toMillis(
                    static_cast<common::Duration>(latency.mean())),
                common::toMillis(latency.p50()),
                common::toMillis(latency.p95()),
                common::toMillis(latency.p99()));
    if (cfg.clocks != ClockKind::Perfect)
        std::printf("avg client clock skew: %.1f us\n",
                    r.avgSkewNs / 1000.0);
    std::printf("local validations: %llu  (failures %llu)\n",
                static_cast<unsigned long long>(
                    r.client.counterValue("txn.local_validations")),
                static_cast<unsigned long long>(r.client.counterValue(
                    "txn.local_validation_fail")));

    // Every section, printed and in the report, covers the window.
    const struct
    {
        const char *name;
        const common::StatSet &stats;
        const char *prefix;
    } sections[] = {
        {"client", r.client, "client."},
        {"server", r.server, "server."},
        {"network", r.network, "net."},
        {"clocksync", r.clock, ""},
        {"backend", r.backend, "ftl."},
        {"device", r.device, "flash."},
    };
    if (dump_stats) {
        std::printf("\n");
        for (const auto &section : sections)
            std::printf("--- %s stats ---\n%s", section.name,
                        section.stats.dump("  ").c_str());
    }
    const bool monitor_ok = observers.finish();

    report.params()
        .set("shards", cfg.numShards)
        .set("replicas", cfg.replicasPerShard)
        .set("clients", cfg.numClients)
        .set("keys", cfg.numKeys)
        .set("seed", cfg.seed)
        .set("backend", workload::backendName(cfg.backend))
        .set("clocks", workload::clockName(cfg.clocks))
        .set("alpha", spec.alpha)
        .set("read_heavy", spec.readHeavy)
        .set("local_validation", cfg.localValidation)
        .set("centiman", cfg.centiman)
        .set("warmup_s", common::toSeconds(spec.warmup))
        .set("seconds", seconds);
    if (chaos != nullptr) {
        report.params()
            .set("chaos", chaos_path)
            .set("chaos_seed", chaos_seed)
            .set("chaos_injections", chaos->injections())
            .set("chaos_heals", chaos->heals());
    }
    report.addRow()
        .set("committed", r.commits)
        .set("aborted", r.aborts)
        .set("txn_per_sec", static_cast<double>(r.commits) / seconds)
        .set("abort_pct", r.abortPct)
        .set("latency_mean_ms",
             common::toMillis(
                 static_cast<common::Duration>(latency.mean())))
        .set("latency_p50_ms", common::toMillis(latency.p50()))
        .set("latency_p95_ms", common::toMillis(latency.p95()))
        .set("latency_p99_ms", common::toMillis(latency.p99()))
        .set("avg_client_skew_us", r.avgSkewNs / 1000.0);
    for (const auto &section : sections)
        report.addStats(section.name, section.stats, section.prefix);
    report.write();
    return monitor_ok ? 0 : 1;
}
