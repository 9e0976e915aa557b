/**
 * @file
 * google-benchmark micro-benchmarks for the hot paths of the
 * simulation and the FTL mapping structures: event queue throughput,
 * coroutine round trips, Zipf sampling, version-chain operations,
 * validation-table lookups, the per-message lookups (shard ring,
 * link delay, stat counters) and latency histograms. These bound the
 * wall-clock cost of the experiment harnesses.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/zipf.hh"
#include "ftl/version_chain.hh"
#include "milana/txn_table.hh"
#include "net/network.hh"
#include "semel/server.hh"
#include "semel/shard_map.hh"
#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        int fired = 0;
        for (int i = 0; i < batch; ++i)
            sim.schedule(i, [&fired] { ++fired; });
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void
BM_CoroutineRoundTrip(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int done = 0;
        auto child = [](sim::Simulator &s) -> sim::Task<int> {
            co_await sim::sleepFor(s, 1);
            co_return 1;
        };
        auto parent = [&](int n) -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                done += co_await child(sim);
        };
        sim::spawn(parent(256));
        sim.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CoroutineRoundTrip);

void
BM_ZipfSample(benchmark::State &state)
{
    common::Rng rng(1);
    common::ZipfSampler zipf(1'000'000,
                             static_cast<double>(state.range(0)) / 100.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(0)->Arg(80)->Arg(99);

void
BM_VersionChainInsertFind(benchmark::State &state)
{
    const int versions = static_cast<int>(state.range(0));
    for (auto _ : state) {
        ftl::VersionChain<int> chain;
        for (int i = 1; i <= versions; ++i)
            chain.insert(common::Version{i * 100, 1}, i);
        benchmark::DoNotOptimize(
            chain.findAt(common::Version{versions * 50, 1}));
    }
    state.SetItemsProcessed(state.iterations() * versions);
}
BENCHMARK(BM_VersionChainInsertFind)->Arg(4)->Arg(64);

void
BM_VersionChainWatermarkPrune(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        ftl::VersionChain<int> chain;
        for (int i = 1; i <= 64; ++i)
            chain.insert(common::Version{i * 100, 1}, i);
        state.ResumeTiming();
        int dropped = 0;
        chain.pruneBelowWatermark(3200,
                                  [&dropped](const auto &) { ++dropped; });
        benchmark::DoNotOptimize(dropped);
    }
}
BENCHMARK(BM_VersionChainWatermarkPrune);

void
BM_KeyStateLookup(benchmark::State &state)
{
    semel::KeyTable table;
    for (common::Key k = 0; k < 100'000; ++k)
        table.getOrCreate(k).latestCommitted = common::Version{100, 1};
    common::Rng rng(2);
    for (auto _ : state) {
        const common::Key k = rng.nextBounded(100'000);
        benchmark::DoNotOptimize(table.find(k));
    }
}
BENCHMARK(BM_KeyStateLookup);

void
BM_TxnTableInsertResolve(benchmark::State &state)
{
    for (auto _ : state) {
        milana::TxnTable table;
        for (std::uint64_t i = 0; i < 64; ++i) {
            semel::ReplicateTxnRecord record;
            record.txn = semel::TxnId{1, i};
            (void)table.merge(record, 0);
        }
        for (std::uint64_t i = 0; i < 64; ++i)
            table.resolve(semel::TxnId{1, i},
                          semel::TxnStatus::Committed);
        benchmark::DoNotOptimize(table.size());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TxnTableInsertResolve);

/**
 * A backup's steady state: a window of transactions sliding through
 * one long-lived table. Each iteration merges a prepare carrying a
 * Retwis-sized write set, merges the outcome of the one the window
 * leaves behind, and truncates at the horizon trailing it.
 */
void
BM_TxnTableSlidingWindow(benchmark::State &state)
{
    constexpr std::uint64_t kWindow = 64;
    milana::TxnTable table;
    semel::ReplicateTxnRecord record;
    for (std::uint64_t w = 0; w < 3; ++w)
        record.writeSet.push_back(semel::WriteSetEntry{w, "w1000:12345"});
    record.participants.push_back(0);
    record.participants.push_back(1);
    std::uint64_t serial = 0;
    for (auto _ : state) {
        record.txn = semel::TxnId{1000, serial};
        record.status = semel::TxnStatus::Prepared;
        record.commitVersion = common::Version{
            static_cast<common::Time>(serial), 1};
        (void)table.merge(record, 0);
        if (serial >= kWindow) {
            const std::uint64_t old = serial - kWindow;
            record.txn = semel::TxnId{1000, old};
            record.status = serial % 4 == 0 ? semel::TxnStatus::Aborted
                                            : semel::TxnStatus::Committed;
            record.commitVersion = common::Version{
                static_cast<common::Time>(old), 1};
            (void)table.merge(record, 0);
            (void)table.truncate(static_cast<common::Time>(old), false);
        }
        ++serial;
    }
    benchmark::DoNotOptimize(table.memoryBytes());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnTableSlidingWindow);

/** Key -> shard on the consistent-hash ring (every operation). */
void
BM_ShardOf(benchmark::State &state)
{
    const semel::ShardMap map(static_cast<std::uint32_t>(state.range(0)));
    common::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(map.shardOf(rng.next()));
}
BENCHMARK(BM_ShardOf)->Arg(1)->Arg(3);

/**
 * One message leg's delay: a Gaussian draw, the link's factor and its
 * `net.link.*` histogram, over a fixed set of directed links (32 is
 * a 1x1 fig6 cell's, ~400 a 3x3 fig8 cell's).
 */
void
BM_NetworkSampleDelay(benchmark::State &state)
{
    const auto links = static_cast<std::size_t>(state.range(0));
    sim::Simulator sim;
    net::Network net(sim, net::NetConfig{}, common::Rng(4));
    std::vector<std::pair<common::NodeId, common::NodeId>> legs;
    for (common::NodeId client = 1000; legs.size() < links; ++client) {
        for (common::NodeId server = 0; server < 9 && legs.size() < links;
             ++server)
            legs.emplace_back(client, server);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        const auto &[from, to] = legs[next];
        benchmark::DoNotOptimize(net.sampleDelay(from, to));
        next = next + 1 == legs.size() ? 0 : next + 1;
    }
}
BENCHMARK(BM_NetworkSampleDelay)->Arg(32)->Arg(400);

/**
 * One counter bump in a server-sized StatSet: Arg 0 through a bound
 * handle, Arg 1 through a name lookup.
 */
void
BM_CounterInc(benchmark::State &state)
{
    common::StatSet stats;
    for (int i = 0; i < 40; ++i)
        stats.counter("milana.filler_" + std::to_string(i)).inc();
    common::CounterHandle prepares(stats, "milana.prepares");
    if (state.range(0) == 0) {
        for (auto _ : state)
            prepares.inc();
    } else {
        for (auto _ : state)
            stats.counter("milana.prepares").inc();
    }
    benchmark::DoNotOptimize(stats.counterValue("milana.prepares"));
}
BENCHMARK(BM_CounterInc)->ArgName("by_name")->Arg(0)->Arg(1);

/** fig8's link-delay shape, N(50 us, 10 us) in ns, drawn up front so
 *  the timed loops measure the histogram alone. */
std::vector<std::int64_t>
linkDelays(std::size_t n)
{
    common::Rng rng(6);
    std::vector<std::int64_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int64_t>(rng.nextGaussian(50'000, 10'000));
    return v;
}

/** One `net.link.*.delay` sample recorded. */
void
BM_HistogramRecord(benchmark::State &state)
{
    const std::vector<std::int64_t> delays = linkDelays(4096);
    common::Histogram h;
    std::size_t next = 0;
    for (auto _ : state) {
        h.record(delays[next]);
        next = (next + 1) & (delays.size() - 1);
    }
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

/** p50 + p99 + p999 of a filled link-delay histogram, as each metrics
 *  window and stat dump reads them. */
void
BM_HistogramQuantile(benchmark::State &state)
{
    common::Histogram h;
    for (const std::int64_t d : linkDelays(100'000))
        h.record(d);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.p50() + h.p99() + h.p999());
}
BENCHMARK(BM_HistogramQuantile);

} // namespace

/**
 * Custom main so this harness shares the suite's uniform --json=PATH
 * flag: it is rewritten into google-benchmark's --benchmark_out
 * flags, so the output file follows *google-benchmark's* JSON schema
 * rather than milana-bench-v1 (see OBSERVABILITY.md).
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> rewritten;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            rewritten.push_back("--benchmark_out=" + arg.substr(7));
            rewritten.push_back("--benchmark_out_format=json");
        } else {
            rewritten.push_back(arg);
        }
    }
    std::vector<char *> argv2;
    argv2.reserve(rewritten.size());
    for (auto &arg : rewritten)
        argv2.push_back(arg.data());
    int argc2 = static_cast<int>(argv2.size());

    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
