/**
 * @file
 * SweepRunner contract tests: every cell runs exactly once regardless
 * of the job count, exceptions propagate, and — the property the whole
 * parallel-sweep design rests on — a fig6-style grid of Cluster
 * simulations produces a byte-identical milana-bench-v1 report whether
 * it runs on 1 worker or 8.
 *
 * The determinism test is the one the TSan CI job runs: it exercises
 * concurrent simulators on real worker threads, so a data race in any
 * ambient state (trace context, logging, RNG) shows up here.
 */

#include <atomic>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/sweep_runner.hh"
#include "common/types.hh"
#include "workload/cell.hh"

namespace {

using common::kSecond;
using workload::BackendKind;
using workload::ClockKind;

TEST(SweepRunner, RunsEveryCellExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        bench::SweepRunner runner(jobs);
        constexpr std::size_t kCells = 37;
        std::vector<std::atomic<int>> hits(kCells);
        runner.run(kCells, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kCells; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "cell " << i << " jobs "
                                         << jobs;
    }
}

TEST(SweepRunner, ZeroCellsIsANoop)
{
    bench::SweepRunner runner(4);
    runner.run(0, [](std::size_t) { FAIL() << "cell ran"; });
}

TEST(SweepRunner, PropagatesCellExceptions)
{
    bench::SweepRunner runner(4);
    EXPECT_THROW(runner.run(16,
                            [&](std::size_t i) {
                                if (i == 7)
                                    throw std::runtime_error("cell 7");
                            }),
                 std::runtime_error);
}

TEST(SweepRunner, JobsClampedToAtLeastOne)
{
    bench::SweepRunner runner(0);
    EXPECT_EQ(runner.jobs(), 1u);
    int ran = 0;
    runner.run(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 3);
}

/** One fig6-style cell: a private Cluster + Retwis fleet. */
double
runAbortCell(BackendKind backend, std::uint32_t clients, double alpha)
{
    workload::CellSpec spec;
    spec.cluster.numShards = 1;
    spec.cluster.replicasPerShard = 1;
    spec.cluster.numClients = clients;
    spec.cluster.backend = backend;
    spec.cluster.clocks = ClockKind::Perfect;
    spec.cluster.numKeys = 500;
    spec.cluster.seed = 1;
    spec.alpha = alpha;
    spec.warmup = kSecond / 4;
    spec.window = kSecond / 2;
    return workload::runCell(spec).abortPct;
}

/** Render the small grid as a milana-bench-v1 report string. */
std::string
sweepReport(unsigned jobs)
{
    struct Coord
    {
        BackendKind backend;
        std::uint32_t clients;
        double alpha;
    };
    std::vector<Coord> coords;
    for (double alpha : {0.6, 0.99}) {
        for (std::uint32_t clients : {4u, 8u}) {
            coords.push_back({BackendKind::SingleVersion, clients, alpha});
            coords.push_back({BackendKind::Mftl, clients, alpha});
        }
    }

    bench::SweepRunner runner(jobs);
    std::vector<double> abortPct(coords.size());
    runner.run(coords.size(), [&](std::size_t i) {
        abortPct[i] = runAbortCell(coords[i].backend,
                                   coords[i].clients, coords[i].alpha);
    });

    bench::Report report("parallel_sweep_test");
    report.params().set("keys", 500).set("seed", 1);
    for (std::size_t i = 0; i < coords.size(); ++i) {
        report.addRow()
            .set("alpha", coords[i].alpha)
            .set("clients", coords[i].clients)
            .set("backend", workload::backendName(coords[i].backend))
            .set("abort_pct", abortPct[i]);
    }
    std::ostringstream os;
    report.writeTo(os);
    return os.str();
}

TEST(ParallelSweep, ReportBytesIdenticalAcrossJobCounts)
{
    const std::string serial = sweepReport(1);
    const std::string parallel = sweepReport(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
