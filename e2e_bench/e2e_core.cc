/**
 * @file
 * End-to-end host-cost benchmark of the assembled simulator: what one
 * simulated Retwis transaction costs the host (wall time, allocations,
 * memory) on three canonical cells, with the simulated outputs that
 * figures 6 and 8 report, and a traced run that splits the cost by
 * layer.
 *
 * Each workload is a closed loop of one Retwis session per client that
 * retries an aborted transaction on the same keys (paper section 5.2),
 * run in classic mode: one process, one thread, one simulator.
 *
 *   e2e_core --workload NAME --seed N --seconds S --trace 0|1
 *            [--tiny] [--out PATH] [--git-rev REV]
 *
 * --trace 0 (end-to-end): a cell warms up and runs a fixed window of
 * simulated time in timed slices; simulated outputs, allocations and
 * peak RSS come from it, so they repeat exactly for a seed whatever
 * the host's speed. Fresh cells of the same seed rerun the window's
 * first part until S wall seconds have passed; host time per attempt
 * is the median (and p90) over slices of the per-slice minimum over
 * these reps. Set-up time is the fastest set-up of every cell built
 * after the process's first, cold, one. Output checks: reps repeat
 * slice for slice, the same seed run unsliced matches the sliced run,
 * another seed differs, and fig6-mftl-20k reproduces the committed
 * Figure 6 cell exactly.
 *
 * --trace 1 (per layer): untraced reps give counts from public
 * accessors; a traced cell over the same window gives simulated self
 * time per layer (SpanProfile), flash counters through the metrics
 * registry, and runs the InvariantMonitor. Tracing overhead compares
 * cells that record the trace with no observer attached against the
 * untraced reps, slice for slice.
 *
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * Any failed check exits 1. --out writes a self-describing result
 * document (host, compiler, build type, seed, workload parameters).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/invariant_monitor.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "span_profile.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------
// Interposed allocation counter (the sim_core/store_core discipline).
// The process runs one thread, so plain counters are exact; counting is
// switched on only around the simulator calls being measured, so the
// harness's own bookkeeping never shows up in allocs/txn.
// ---------------------------------------------------------------------

namespace {

bool g_countAllocs = false;
std::uint64_t g_allocCalls = 0;
std::uint64_t g_allocBytes = 0;

void *
countedAlloc(std::size_t size)
{
    if (g_countAllocs) {
        ++g_allocCalls;
        g_allocBytes += size;
    }
    void *p = std::malloc(size ? size : 1);
    if (!p)
        std::abort();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using common::Duration;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::Time;
using workload::BackendKind;
using workload::ClockKind;
using workload::Cluster;
using workload::ClusterConfig;
using workload::RetwisConfig;
using workload::RetwisWorkload;
using SteadyClock = std::chrono::steady_clock;

/** Window of the traced pass's metrics registry; the measured window
 *  starts on one of its boundaries. */
constexpr Duration kMetricsInterval = 100 * kMillisecond;

/** Ring size of the traced cells' TraceLog. The observer sees every
 *  event as it is recorded, so the ring only bounds memory. */
constexpr std::size_t kTraceCapacity = 4096;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** A field of /proc/self/status in kB (VmRSS, VmHWM), 0 if absent. */
double
statusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::atof(line.c_str() + len + 1);
    }
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
perTxn(double value, std::uint64_t attempts)
{
    return attempts == 0 ? 0.0 : value / static_cast<double>(attempts);
}

double
pct(double part, double whole)
{
    return whole == 0 ? 0.0 : 100.0 * part / whole;
}

double
toUs(double ns)
{
    return ns / 1000.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Simulated length of one timed slice: the MFTL watermark sweep's
 *  period, the costliest periodic process, so every slice carries one
 *  share of it. */
constexpr Duration kSlice = 50 * kMillisecond;
/** Simulated span compared across reruns: a multiple of kSlice and no
 *  longer than any host window. */
constexpr Duration kCheck = 200 * kMillisecond;

struct Workload
{
    const char *name;
    const char *why;
    std::uint32_t shards;
    std::uint32_t replicas;
    std::uint32_t clients;
    BackendKind backend;
    ClockKind clocks;
    /** fig6's same-machine network (5 +- 1 us, min 1 us). */
    bool ipcNet;
    double alpha;
    bool readHeavy;
    std::uint64_t keys;
    /** Simulated warm-up before the measured window. */
    Duration warmup;
    /** Fixed simulated window for simulated outputs and counts. */
    Duration window;
    /** Prefix of the window that later reps rerun for host timing. */
    Duration hostWindow;
    /** Reproduce BENCH_fig6.json's alpha=0.8, 16-client MFTL cell. */
    bool golden;

    /** Reads are served by one MFTL replica's multi-version store. */
    bool
    checkSnapshotReads() const
    {
        return backend == BackendKind::Mftl && replicas == 1;
    }

    bool checkReplicationBeforeAck() const { return replicas > 1; }

    std::size_t
    hostSlices() const
    {
        return static_cast<std::size_t>(hostWindow / kSlice);
    }
};

std::vector<Workload>
workloads(bool tiny)
{
    // Windows are long enough that abort rates and p999 latency settle.
    // Host windows are short, so a run holds many reps: a shared host
    // runs in fast and slow phases that last seconds, and the
    // per-slice minimum is steady only if some reps land in fast ones.
    std::vector<Workload> all = {
        {"fig6-mftl-20k",
         "fig6 cell: protocol path, MFTL write path and GC; net fan-out, "
         "replication and clock sync bypassed",
         1, 1, 16, BackendKind::Mftl, ClockKind::Perfect, true, 0.8, false,
         20'000, kSecond, 16 * kSecond, 2 * kSecond, true},
        {"fig6-mftl-2m",
         "fig6 code and mix over 100x the keys: per-key tables overflow "
         "every cache; populate and RSS dominate",
         1, 1, 16, BackendKind::Mftl, ClockKind::Perfect, true, 0.8, false,
         2'000'000, 500 * kMillisecond, 5 * kSecond, 2 * kSecond, false},
        {"fig8-dram-3x3-ro",
         "fig8 cell: multi-shard prepares, 3-way replication, PTP-SW "
         "sync, local validation; flash and FTL GC bypassed",
         3, 3, 32, BackendKind::Dram, ClockKind::PtpSw, false, 0.6, true,
         30'000, 500 * kMillisecond, 8 * kSecond, kSecond, false},
    };
    if (tiny) {
        for (Workload &w : all) {
            w.keys = std::max<std::uint64_t>(w.keys / 100, 2'000);
            w.warmup = 100 * kMillisecond;
            w.window = 2 * kCheck;
            w.hostWindow = kCheck;
            w.golden = false;
        }
    }
    return all;
}

ClusterConfig
clusterConfig(const Workload &w, std::uint64_t seed,
              common::TraceLog *trace, common::MetricsRegistry *metrics)
{
    ClusterConfig cfg;
    cfg.numShards = w.shards;
    cfg.replicasPerShard = w.replicas;
    cfg.numClients = w.clients;
    cfg.backend = w.backend;
    cfg.clocks = w.clocks;
    cfg.numKeys = w.keys;
    cfg.seed = seed;
    cfg.trace = trace;
    cfg.metrics = metrics;
    if (w.ipcNet) {
        cfg.net.oneWayMean = 5 * kMicrosecond;
        cfg.net.oneWaySigma = 1 * kMicrosecond;
        cfg.net.minLatency = 1 * kMicrosecond;
    }
    return cfg;
}

RetwisConfig
retwisConfig(const Workload &w, std::uint64_t seed)
{
    RetwisConfig r;
    r.alpha = w.alpha;
    r.numKeys = w.keys;
    r.readHeavy = w.readHeavy;
    r.seed = seed + 100; // as the figure benches derive it
    return r;
}

/** Host time of one cell's set-up phases. */
struct Setup
{
    double buildS = 0;
    double populateS = 0;
    double startS = 0;

    double total() const { return buildS + populateS + startS; }
};

/**
 * The fastest of @p setups after the first, which must exist. The
 * first cell a process builds pays for cold caches and fresh pages,
 * and host interference only ever adds time, so the minimum over the
 * later cells is the steady cost of a set-up.
 */
Setup
fastestWarmSetup(const std::vector<Setup> &setups)
{
    return *std::min_element(setups.begin() + 1, setups.end(),
                             [](const Setup &a, const Setup &b) {
                                 return a.total() < b.total();
                             });
}

/** One assembled system: the cluster and its Retwis fleet (declared
 *  in that order, so the fleet is destroyed first). */
struct Cell
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<RetwisWorkload> fleet;
    Setup setup;

    std::uint64_t
    attempts() const
    {
        return fleet->totalCommits() + fleet->totalAborts();
    }

    /** Let in-flight work drain, as the figure benches' runFor does. */
    void
    windDown()
    {
        cluster->requestStop();
        cluster->runUntil(cluster->now() + kSecond);
    }
};

std::unique_ptr<Cell>
makeCell(const Workload &w, std::uint64_t seed,
         common::TraceLog *trace = nullptr,
         common::MetricsRegistry *metrics = nullptr)
{
    auto cell = std::make_unique<Cell>();
    const auto t0 = SteadyClock::now();
    cell->cluster =
        std::make_unique<Cluster>(clusterConfig(w, seed, trace, metrics));
    cell->setup.buildS = secondsSince(t0);
    const auto t1 = SteadyClock::now();
    cell->cluster->populate();
    cell->setup.populateS = secondsSince(t1);
    const auto t2 = SteadyClock::now();
    cell->cluster->start();
    cell->setup.startS = secondsSince(t2);
    cell->fleet = std::make_unique<RetwisWorkload>(*cell->cluster,
                                                   retwisConfig(w, seed));
    cell->fleet->start();
    return cell;
}

/** Run the warm-up, ending on a metrics-interval boundary. */
void
warmUp(Cell &cell, const Workload &w)
{
    const Time end = (cell.cluster->now() + w.warmup + kMetricsInterval -
                      1) /
                     kMetricsInterval * kMetricsInterval;
    cell.cluster->runUntil(end);
}

/** Attempts that ended in an infrastructure failure: a failed read
 *  (the session drops the attempt) or a failed commit. */
std::uint64_t
failedAttempts(const common::StatSet &client)
{
    return client.counterValue("txn.failed") +
           client.counterValue("txn.read_failures");
}

// ---------------------------------------------------------------------
// Determinism fingerprint
// ---------------------------------------------------------------------

struct Fingerprint
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t failed = 0;
    std::uint64_t events = 0;
    std::uint64_t latCount = 0;
    std::int64_t latMin = 0;
    std::int64_t latP50 = 0;
    std::int64_t latP90 = 0;
    std::int64_t latP99 = 0;
    std::int64_t latP999 = 0;
    std::int64_t latMax = 0;

    bool operator==(const Fingerprint &) const = default;

    std::string
    str() const
    {
        std::ostringstream os;
        os << "commits=" << commits << " aborts=" << aborts
           << " failed=" << failed << " events=" << events
           << " lat[n=" << latCount << " min=" << latMin
           << " p50=" << latP50 << " p90=" << latP90 << " p99=" << latP99
           << " p999=" << latP999 << " max=" << latMax << "]";
        return os.str();
    }
};

Fingerprint
fingerprint(Cell &cell, std::uint64_t events, std::uint64_t failed)
{
    const common::Histogram lat = cell.fleet->mergedLatency();
    Fingerprint f;
    f.commits = cell.fleet->totalCommits();
    f.aborts = cell.fleet->totalAborts();
    f.failed = failed;
    f.events = events;
    f.latCount = lat.count();
    f.latMin = lat.min();
    f.latP50 = lat.p50();
    f.latP90 = lat.quantile(0.90);
    f.latP99 = lat.p99();
    f.latP999 = lat.p999();
    f.latMax = lat.max();
    return f;
}

/** Unsliced: warm up, then one runUntil over the check span. */
Fingerprint
unslicedFingerprint(const Workload &w, std::uint64_t seed,
                    std::vector<Setup> &setups)
{
    auto cell = makeCell(w, seed);
    setups.push_back(cell->setup);
    warmUp(*cell, w);
    cell->fleet->resetMeasurement();
    const std::uint64_t failed0 =
        failedAttempts(cell->cluster->clientStats());
    const std::uint64_t events =
        cell->cluster->runUntil(cell->cluster->now() + kCheck);
    const Fingerprint f = fingerprint(
        *cell, events,
        failedAttempts(cell->cluster->clientStats()) - failed0);
    cell->windDown();
    return f;
}

// ---------------------------------------------------------------------
// Counter snapshots read through public accessors
// ---------------------------------------------------------------------

/** Every StatSet the benchmark can reach, copied at one instant. */
struct Counters
{
    common::StatSet client;
    common::StatSet server;
    common::StatSet net;
    common::StatSet backend;
    common::StatSet clock;
    std::uint64_t dataPlaneBytes = 0;

    static Counters
    read(Cluster &cluster)
    {
        Counters c;
        c.client = cluster.clientStats();
        c.server = cluster.serverStats();
        c.net = cluster.network().stats();
        for (std::size_t i = 0; i < cluster.numServers(); ++i) {
            ftl::KvBackend &backend = cluster.server(i).backend();
            c.backend.merge(backend.stats());
            c.dataPlaneBytes += backend.dataPlaneBytes();
        }
        c.clock = cluster.clockStats();
        return c;
    }
};

std::uint64_t
delta(const common::StatSet &end, const common::StatSet &start,
      const std::string &name)
{
    return end.counterValue(name) - start.counterValue(name);
}

/** Sum of the deltas of every counter whose name ends in @p suffix
 *  (the backend prefixes its counters: mftl.puts, dram.puts). */
std::uint64_t
deltaSuffix(const common::StatSet &end, const common::StatSet &start,
            const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, counter] : end.counters())
        if (name.ends_with(suffix))
            total += counter.value() - start.counterValue(name);
    return total;
}

/** The samples histogram @p name gained between the snapshots. */
common::Histogram
histDelta(const common::StatSet &end, const common::StatSet &start,
          const std::string &name)
{
    common::Histogram d;
    const common::Histogram *cur = end.findHistogram(name);
    if (cur == nullptr)
        return d;
    const common::Histogram *prev = start.findHistogram(name);
    d.assignDelta(*cur, prev != nullptr ? *prev : common::Histogram());
    return d;
}

// ---------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------

struct Slice
{
    double wallNs = 0;
    std::uint64_t attempts = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
};

struct WindowResult
{
    std::vector<Slice> slices;
    /** Fingerprint at the check horizon. */
    Fingerprint check;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t failed = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    double wallS = 0;
    common::Histogram latency;
    double peakRssKb = 0;
    double rssStartKb = 0;
    double rssEndKb = 0;
    double avgSkewNs = 0;
    Counters start;
    Counters end;

    std::uint64_t attempts() const { return commits + aborts + failed; }
};

/**
 * Run @p window of simulated time in slices of kSlice, timing each
 * runUntil call; snapshot at the check horizon and at the end.
 * @p onWindowEdge runs at the window's start (true) and end (false):
 * the traced pass switches its span accounting there.
 */
template <typename Edge>
WindowResult
measureWindow(Cell &cell, Duration window, Edge onWindowEdge)
{
    Cluster &cluster = *cell.cluster;
    WindowResult r;
    const auto slices = static_cast<std::size_t>(window / kSlice);
    const auto check_slices = static_cast<std::size_t>(kCheck / kSlice);
    r.slices.reserve(slices);

    cell.fleet->resetMeasurement();
    r.start = Counters::read(cluster);
    const std::uint64_t failed0 = failedAttempts(r.start.client);
    r.rssStartKb = statusKb("VmRSS");
    const Time t0 = cluster.now();
    const std::uint64_t allocs0 = g_allocCalls;
    const std::uint64_t bytes0 = g_allocBytes;
    onWindowEdge(true);
    for (std::size_t k = 1; k <= slices; ++k) {
        const std::uint64_t a0 = cell.attempts();
        const std::uint64_t m0 = g_allocCalls;
        const auto s = SteadyClock::now();
        g_countAllocs = true;
        const std::uint64_t ev =
            cluster.runUntil(t0 + static_cast<Duration>(k) * kSlice);
        g_countAllocs = false;
        const double ns = std::chrono::duration<double, std::nano>(
                              SteadyClock::now() - s)
                              .count();
        r.slices.push_back({ns, cell.attempts() - a0, ev, g_allocCalls - m0});
        r.events += ev;
        r.wallS += ns * 1e-9;
        if (k == check_slices)
            r.check = fingerprint(
                cell, r.events,
                failedAttempts(cluster.clientStats()) - failed0);
    }
    onWindowEdge(false);
    r.allocs = g_allocCalls - allocs0;
    r.allocBytes = g_allocBytes - bytes0;
    r.peakRssKb = statusKb("VmHWM");
    r.rssEndKb = statusKb("VmRSS");
    r.commits = cell.fleet->totalCommits();
    r.aborts = cell.fleet->totalAborts();
    r.end = Counters::read(cluster);
    r.failed = failedAttempts(r.end.client) - failed0;
    r.latency = cell.fleet->mergedLatency();
    r.avgSkewNs = cluster.avgClientSkew();
    return r;
}

/** For each of the first @p slices slices, the minimum wall time over
 *  @p runs (ns). */
std::vector<double>
sliceMinNs(const std::vector<WindowResult> &runs, std::size_t slices)
{
    std::vector<double> ns(slices, std::numeric_limits<double>::infinity());
    for (const WindowResult &r : runs)
        for (std::size_t k = 0; k < slices; ++k)
            ns[k] = std::min(ns[k], r.slices[k].wallNs);
    return ns;
}

/**
 * One seed measured repeatedly. The first cell runs the whole window:
 * simulated outputs, counts and peak RSS come from it. Fresh cells
 * then rerun the window's first w.hostWindow until @p seconds of wall
 * time have passed, with at least kMinReps cells in all. Every rep
 * does the same simulated work slice for slice, so the per-slice
 * minimum over reps strips host interference (which only ever adds
 * time) while keeping each slice's real cost, GC and sweeps included.
 */
struct Reps
{
    static constexpr std::size_t kMinReps = 3;

    std::vector<WindowResult> runs;
    /** Every cell's set-up, the process's first (cold) cell first. */
    std::vector<Setup> setups;
    /** Per slice of the host window, minimum over reps. */
    std::vector<double> minSliceNs;
    std::vector<double> usPerTxn;
    std::vector<double> nsPerEvent;

    const WindowResult &first() const { return runs.front(); }

    std::uint64_t
    attempted() const
    {
        std::uint64_t n = 0;
        for (const WindowResult &r : runs)
            n += r.attempts();
        return n;
    }

    std::uint64_t
    failed() const
    {
        std::uint64_t n = 0;
        for (const WindowResult &r : runs)
            n += r.failed;
        return n;
    }
};

Reps
measureReps(const Workload &w, std::uint64_t seed, double seconds)
{
    Reps reps;
    const auto start = SteadyClock::now();
    while (reps.runs.size() < Reps::kMinReps ||
           secondsSince(start) < seconds) {
        auto cell = makeCell(w, seed);
        reps.setups.push_back(cell->setup);
        warmUp(*cell, w);
        reps.runs.push_back(measureWindow(
            *cell, reps.runs.empty() ? w.window : w.hostWindow,
            [](bool) {}));
        cell->windDown();
    }
    reps.minSliceNs = sliceMinNs(reps.runs, w.hostSlices());
    const std::vector<Slice> &base = reps.first().slices;
    for (std::size_t k = 0; k < reps.minSliceNs.size(); ++k) {
        const double ns = reps.minSliceNs[k];
        if (base[k].attempts > 0)
            reps.usPerTxn.push_back(ns / 1000.0 /
                                    static_cast<double>(base[k].attempts));
        if (base[k].events > 0)
            reps.nsPerEvent.push_back(ns /
                                      static_cast<double>(base[k].events));
    }
    return reps;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void
    check(bool ok, const std::string &what)
    {
        std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
        if (!ok)
            failures.push_back(what);
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string out;
    std::string gitRev = "unknown";
};

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/** fig6's runCell at its own defaults, for the golden comparison. */
double
fig6GoldenAbortPct(const Workload &w, std::vector<Setup> &setups)
{
    auto cell = makeCell(w, 1);
    setups.push_back(cell->setup);
    cell->cluster->runUntil(cell->cluster->now() + kSecond);
    cell->fleet->resetMeasurement();
    cell->cluster->resetStats();
    cell->cluster->runFor(4 * kSecond);
    return cell->fleet->abortRate() * 100.0;
}

/** BENCH_fig6.json, row alpha=0.8 clients=16, mftl_abort_pct. */
constexpr double kFig6GoldenMftlAbortPct = 25.692105713796447;

void
windowChecks(Report &rep, const WindowResult &r, const char *pass)
{
    rep.check(r.commits > 0,
              std::string(pass) + ": the window committed transactions");
    rep.check(r.failed == 0,
              std::string(pass) + ": no attempt ended in a failure");
    rep.check(r.latency.count() == r.commits,
              std::string(pass) + ": one latency sample per commit");
}

/** Reps of one seed must repeat the first exactly, slice for slice. */
void
repChecks(Report &rep, const Reps &reps)
{
    windowChecks(rep, reps.first(), "measured");
    const WindowResult &a = reps.first();
    bool same = true;
    for (const WindowResult &b : reps.runs) {
        same = same && b.check == a.check &&
               b.slices.size() <= a.slices.size();
        for (std::size_t k = 0; same && k < b.slices.size(); ++k)
            same = b.slices[k].attempts == a.slices[k].attempts &&
                   b.slices[k].events == a.slices[k].events &&
                   b.slices[k].allocs == a.slices[k].allocs;
    }
    rep.check(same, "reruns of the seed repeat attempts, events and "
                    "allocations slice for slice");
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

/** Extra set-up samples are taken, where set-up is cheap, until the
 *  warm samples number this many or take this long in all. */
constexpr std::size_t kMaxSetupSamples = 64;
constexpr double kSetupBudgetS = 2.0;

void
runEndToEnd(const Workload &w, const Options &opt, Report &rep)
{
    const Reps reps = measureReps(w, opt.seed, opt.seconds);
    const WindowResult &r = reps.first();
    repChecks(rep, reps);

    std::vector<Setup> setups = reps.setups;
    const Fingerprint same = unslicedFingerprint(w, opt.seed, setups);
    std::printf("fingerprint sliced   %s\n", r.check.str().c_str());
    std::printf("fingerprint unsliced %s\n", same.str().c_str());
    rep.check(same == r.check,
              "same seed, unsliced run matches the sliced run");
    const Fingerprint other = unslicedFingerprint(w, opt.seed + 1, setups);
    std::printf("fingerprint seed+1   %s\n", other.str().c_str());
    rep.check(!(other == r.check), "a different seed changes the outputs");
    if (w.golden) {
        const double got = fig6GoldenAbortPct(w, setups);
        std::printf("fig6 golden cell: mftl_abort_pct %.17g (want %.17g)\n",
                    got, kFig6GoldenMftlAbortPct);
        rep.check(got == kFig6GoldenMftlAbortPct,
                  "fig6 alpha=0.8 16-client MFTL cell reproduces exactly");
    }

    double warm_s = 0;
    for (std::size_t i = 1; i < setups.size(); ++i)
        warm_s += setups[i].total();
    while (setups.size() < kMaxSetupSamples && warm_s < kSetupBudgetS) {
        auto extra = makeCell(w, opt.seed);
        setups.push_back(extra->setup);
        warm_s += extra->setup.total();
        extra->windDown();
    }
    std::vector<double> warm;
    for (std::size_t i = 1; i < setups.size(); ++i)
        warm.push_back(setups[i].total());

    const std::uint64_t attempts = r.attempts();
    const std::vector<double> &us = reps.usPerTxn;
    std::printf("window: %.0f ms simulated in %zu slices of %.0f ms: %llu "
                "attempts, %llu commits; host window %.0f ms, %zu reps "
                "(wall s:",
                common::toMillis(w.window), r.slices.size(),
                common::toMillis(kSlice),
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(r.commits),
                common::toMillis(w.hostWindow), reps.runs.size());
    for (const WindowResult &run : reps.runs)
        std::printf(" %.2f", run.wallS);
    std::printf(")\n");
    std::printf("per-slice min wall us/attempt: p10 %.3f p50 %.3f p90 %.3f "
                "(%zu slices)\n",
                percentile(us, 0.10), percentile(us, 0.50),
                percentile(us, 0.90), us.size());
    std::printf("setup s: cold %.4f; %zu warm: min %.4f p50 %.4f max "
                "%.4f\n",
                setups.front().total(), warm.size(), percentile(warm, 0),
                median(warm), percentile(warm, 1));
    std::printf("latency samples (commits) behind p50/p999: %llu\n",
                static_cast<unsigned long long>(r.latency.count()));

    rep.add("setup_s", fastestWarmSetup(setups).total(), "s");
    rep.add("wall_us_per_txn", median(us), "us");
    rep.add("wall_us_per_txn_p90", percentile(us, 0.90), "us");
    rep.add("allocs_per_txn",
            perTxn(static_cast<double>(r.allocs), attempts), "count");
    rep.add("alloc_bytes_per_txn",
            perTxn(static_cast<double>(r.allocBytes), attempts), "B");
    rep.add("peak_rss_mb", r.peakRssKb / 1024.0, "MB");
    rep.add("abort_pct",
            pct(static_cast<double>(r.aborts),
                static_cast<double>(r.commits + r.aborts)),
            "%");
    rep.add("sim_commits_per_s",
            static_cast<double>(r.commits) / common::toSeconds(w.window),
            "txn/s");
    rep.add("sim_lat_p50_us", toUs(static_cast<double>(r.latency.p50())),
            "us");
    rep.add("sim_lat_p999_us",
            toUs(static_cast<double>(r.latency.p999())), "us");
    rep.attempted = reps.attempted();
    rep.failed = reps.failed();
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

/** Counter deltas over the window of the flash StatSets, read through
 *  the registry (the cluster exposes no device accessor). */
struct FlashCounts
{
    double reads = 0;
    double programs = 0;
    double erases = 0;
    std::vector<double> waitP50;
    std::vector<double> waitP99;
};

FlashCounts
flashCounts(const common::TimeSeriesLog &log, Time t0, Time t1)
{
    FlashCounts f;
    for (const auto *series : log.sorted()) {
        if (!series->name.starts_with("flash.ssd."))
            continue;
        for (const common::MetricPoint &p : series->points()) {
            if (p.windowStart < t0 || p.windowEnd > t1)
                continue;
            if (series->name == "flash.ssd.reads")
                f.reads += p.value;
            else if (series->name == "flash.ssd.programs")
                f.programs += p.value;
            else if (series->name == "flash.ssd.erases")
                f.erases += p.value;
            else if (series->name == "flash.ssd.queue_wait" &&
                     p.count > 0) {
                f.waitP50.push_back(static_cast<double>(p.p50));
                f.waitP99.push_back(static_cast<double>(p.p99));
            }
        }
    }
    return f;
}

void
runPerLayer(const Workload &w, const Options &opt, Report &rep)
{
    // Untraced reps: counts from public accessors, host time per event.
    const Reps reps = measureReps(w, opt.seed, opt.seconds);
    const WindowResult &u = reps.first();
    repChecks(rep, reps);

    // Traced pass over the same fixed window: spans -> SpanProfile ->
    // InvariantMonitor, flash StatSets through the metrics registry.
    common::TraceLog log(kTraceCapacity);
    common::MetricsRegistry metrics(kMetricsInterval);
    e2e::SpanProfile profile;
    common::InvariantMonitor::Config mcfg;
    mcfg.checkCommitMonotonic = true;
    mcfg.checkSnapshotReads = w.checkSnapshotReads();
    mcfg.checkReplicationBeforeAck = w.checkReplicationBeforeAck();
    common::InvariantMonitor monitor(mcfg, &std::cerr);
    log.setObserver([&](const common::TraceEvent &e) {
        profile.onEvent(e);
        monitor.onEvent(e);
    });
    auto traced = makeCell(w, opt.seed, &log, &metrics);
    warmUp(*traced, w);
    const Time t0 = traced->cluster->now();
    const WindowResult t = measureWindow(
        *traced, w.window, [&](bool on) { profile.setCounting(on); });
    const Time t1 = t0 + w.window;
    traced->windDown();
    traced->cluster->finishMetrics();
    const FlashCounts flash = flashCounts(metrics.log(), t0, t1);
    traced.reset();
    log.setObserver(nullptr);
    windowChecks(rep, t, "traced");
    rep.check(monitor.ok(), "invariant monitor: no violations");
    if (!monitor.ok())
        monitor.report(std::cerr);
    std::printf("trace: %llu events observed, monitor checks: "
                "commit-monotonic%s%s\n",
                static_cast<unsigned long long>(log.recorded()),
                mcfg.checkSnapshotReads ? ", snapshot-read" : "",
                mcfg.checkReplicationBeforeAck ? ", replication-before-ack"
                                               : "");

    // Tracing's own cost: cells that record the program's trace with no
    // observer attached rerun the host window, against the untraced reps
    // slice for slice (minimum over cells on both sides). The traced pass
    // above also pays for the benchmark's observer and monitor.
    std::vector<WindowResult> bare;
    for (std::size_t i = 0; i < Reps::kMinReps; ++i) {
        common::TraceLog bare_log(kTraceCapacity);
        auto cell = makeCell(w, opt.seed, &bare_log);
        warmUp(*cell, w);
        bare.push_back(measureWindow(*cell, w.hostWindow, [](bool) {}));
        cell->windDown();
    }
    const double untraced_ns = sum(reps.minSliceNs);
    const double bare_ns = sum(sliceMinNs(bare, w.hostSlices()));
    double observed_ns = 0;
    for (std::size_t k = 0; k < w.hostSlices(); ++k)
        observed_ns += t.slices[k].wallNs;
    std::printf("host window wall s: untraced %.4f (min of %zu cells), "
                "traced %.4f (min of %zu), traced with the benchmark's "
                "observer and monitor %.4f (one cell)\n",
                untraced_ns * 1e-9, reps.runs.size(), bare_ns * 1e-9,
                bare.size(), observed_ns * 1e-9);

    const std::uint64_t n = u.attempts();
    const std::uint64_t tn = t.attempts();
    const double window_s = common::toSeconds(w.window);
    const auto ud = [&](const char *name) {
        return static_cast<double>(delta(u.end.client, u.start.client,
                                         name));
    };
    const auto sd = [&](const char *name) {
        return static_cast<double>(delta(u.end.server, u.start.server,
                                         name));
    };
    std::printf("per-layer counts over %.0f ms simulated: %llu attempts "
                "untraced, %llu traced\n",
                common::toMillis(w.window),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(tn));

    // sim
    rep.add("sim.events_per_txn",
            perTxn(static_cast<double>(u.events), n), "count");
    rep.add("sim.wall_ns_per_event", median(reps.nsPerEvent), "ns");
    // workload (the fastest warm set-up, as setup_s takes it)
    const Setup setup = fastestWarmSetup(reps.setups);
    rep.add("workload.build_s", setup.buildS, "s");
    rep.add("workload.populate_s", setup.populateS, "s");
    rep.add("workload.start_s", setup.startS, "s");
    // net
    rep.add("net.calls_per_txn",
            perTxn(static_cast<double>(
                       delta(u.end.net, u.start.net, "net.calls")),
                   n),
            "count");
    rep.add("net.sends_per_txn",
            perTxn(static_cast<double>(
                       delta(u.end.net, u.start.net, "net.sends")),
                   n),
            "count");
    rep.add("net.sim_self_us_per_txn",
            toUs(perTxn(profile.selfNs(e2e::SpanProfile::Net), tn)), "us");
    // milana
    const double server_reads = sd("milana.gets");
    rep.add("milana.replica_reads_per_txn",
            perTxn(ud("txn.replica_reads"), n), "count");
    rep.add("milana.cache_hit_pct",
            pct(ud("txn.cache_hits"), ud("txn.cache_hits") + server_reads),
            "%");
    rep.add("milana.local_validation_ok_pct",
            pct(ud("txn.local_validations") -
                    ud("txn.local_validation_fail"),
                static_cast<double>(n)),
            "%");
    rep.add("milana.prepares_per_txn", perTxn(sd("milana.prepares"), n),
            "count");
    rep.add("milana.ctp_invocations_per_s",
            sd("milana.ctp_invocations") / window_s, "1/s");
    for (const char *reason :
         {"read_prepared", "read_stale", "write_prepared",
          "write_read_conflict", "write_stale", "snapshot_violated",
          "clock_suspect"}) {
        rep.add(std::string("milana.abort.") + reason + "_pct",
                pct(ud((std::string("txn.abort.") + reason).c_str()),
                    static_cast<double>(n)),
                "%");
    }
    rep.add("milana.server_sim_self_us_per_txn",
            toUs(perTxn(profile.selfNs(e2e::SpanProfile::MilanaServer),
                        tn)),
            "us");
    rep.add("milana.rss_growth_kb_per_sim_s",
            (u.rssEndKb - u.rssStartKb) / window_s, "kB/s");
    // semel: SEMEL's replication of single writes and of MILANA's
    // transaction records, counted together.
    common::Histogram repl =
        histDelta(u.end.server, u.start.server, "semel.repl_wait");
    repl.merge(histDelta(u.end.server, u.start.server, "milana.repl_wait"));
    rep.add("semel.replica_writes_per_txn",
            perTxn(sd("semel.replica_writes") + sd("milana.replica_records"),
                   n),
            "count");
    rep.add("semel.repl_wait_p50_us", toUs(static_cast<double>(repl.p50())),
            "us");
    rep.add("semel.repl_wait_p99_us", toUs(static_cast<double>(repl.p99())),
            "us");
    // ftl (puts and programs from the traced pass, one window)
    const double ftl_puts = static_cast<double>(
        deltaSuffix(t.end.backend, t.start.backend, ".puts"));
    common::Histogram ftl_get;
    for (const auto &[name, h] : u.end.backend.histograms())
        if (name.ends_with(".get_latency"))
            ftl_get.merge(histDelta(u.end.backend, u.start.backend, name));
    rep.add("ftl.gets_per_txn",
            perTxn(static_cast<double>(deltaSuffix(
                       u.end.backend, u.start.backend, ".gets")),
                   n),
            "count");
    rep.add("ftl.puts_per_txn",
            perTxn(static_cast<double>(deltaSuffix(
                       u.end.backend, u.start.backend, ".puts")),
                   n),
            "count");
    rep.add("ftl.write_amp", ftl_puts == 0 ? 0.0 : flash.programs / ftl_puts,
            "ratio");
    rep.add("ftl.gc_victims_per_s",
            static_cast<double>(deltaSuffix(u.end.backend, u.start.backend,
                                            ".gc_victims")) /
                window_s,
            "1/s");
    rep.add("ftl.get_latency_p99_us",
            toUs(static_cast<double>(ftl_get.p99())), "us");
    rep.add("ftl.data_plane_bytes_per_key",
            static_cast<double>(u.end.dataPlaneBytes) /
                static_cast<double>(w.keys * w.replicas),
            "B");
    // flash
    rep.add("flash.reads_per_txn", perTxn(flash.reads, tn), "count");
    rep.add("flash.programs_per_txn", perTxn(flash.programs, tn), "count");
    rep.add("flash.erases_per_s", flash.erases / window_s, "1/s");
    rep.add("flash.queue_wait_p50_us", toUs(median(flash.waitP50)), "us");
    rep.add("flash.queue_wait_p99_us", toUs(median(flash.waitP99)), "us");
    rep.add("flash.sim_self_us_per_txn",
            toUs(perTxn(profile.selfNs(e2e::SpanProfile::Flash), tn)), "us");
    // clocksync (all zero under Perfect clocks: there is no ensemble)
    const common::Histogram offset =
        histDelta(u.end.clock, u.start.clock, "clocksync.offset_abs");
    rep.add("clocksync.exchanges_per_s",
            static_cast<double>(
                delta(u.end.clock, u.start.clock, "clocksync.exchanges")) /
                window_s,
            "1/s");
    rep.add("clocksync.offset_abs_p99_us",
            toUs(static_cast<double>(offset.p99())), "us");
    rep.add("clocksync.avg_skew_us", toUs(u.avgSkewNs), "us");
    // common
    rep.add("common.trace_overhead_pct", 100.0 * (bare_ns / untraced_ns - 1.0),
            "%");

    rep.attempted = reps.attempted() + t.attempts();
    rep.failed = reps.failed() + t.failed;
    for (const WindowResult &b : bare) {
        rep.attempted += b.attempts();
        rep.failed += b.failed;
    }
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

void
writeParams(common::JsonWriter &j, const Workload &w)
{
    j.beginObject()
        .key("shards").value(w.shards)
        .key("replicas_per_shard").value(w.replicas)
        .key("clients").value(w.clients)
        .key("backend").value(workload::backendName(w.backend))
        .key("clocks").value(workload::clockName(w.clocks))
        .key("local_validation").value(ClusterConfig{}.localValidation)
        .key("net").value(w.ipcNet ? "ipc 5+-1us min 1us" : "default")
        .key("alpha").value(w.alpha)
        .key("mix").value(w.readHeavy ? "read-heavy 5/10/10/75"
                                      : "default 5/10/35/50")
        .key("keys").value(w.keys)
        .key("warmup_ms").value(common::toMillis(w.warmup))
        .key("slice_ms").value(common::toMillis(kSlice))
        .key("window_ms").value(common::toMillis(w.window))
        .key("host_window_ms").value(common::toMillis(w.hostWindow))
        .key("check_ms").value(common::toMillis(kCheck))
        .key("load").value("closed loop, one Retwis session per client, "
                           "retry aborts on the same keys; classic mode")
        .endObject();
}

void
writeResult(std::ostream &os, const Workload &w, const Options &opt,
            const Report &rep, const std::string &compiler)
{
    common::JsonWriter j(os);
    j.beginObject()
        .key("schema").value("milana-e2e-v1")
        .key("workload").value(w.name)
        .key("why").value(w.why)
        .key("trace").value(opt.trace)
        .key("seed").value(opt.seed)
        .key("seconds").value(opt.seconds)
        .key("tiny").value(opt.tiny);
    j.key("host").beginObject()
        .key("git_rev").value(opt.gitRev)
        .key("nproc").value(std::thread::hardware_concurrency())
        .key("compiler").value(compiler)
        .key("build_type").value(E2E_BUILD_TYPE)
        .key("release").value(std::string(E2E_BUILD_TYPE) == "Release")
        .endObject();
    j.key("params");
    writeParams(j, w);
    j.key("correct").value(rep.failures.empty());
    j.key("failures").beginArray();
    for (const std::string &f : rep.failures)
        j.value(f);
    j.endArray();
    j.key("attempted").value(rep.attempted);
    j.key("failed").value(rep.failed);
    j.key("metrics").beginObject();
    for (const Metric &m : rep.metrics)
        j.key(m.name).beginObject().key("value").value(m.value)
            .key("unit").value(m.unit).endObject();
    j.endObject().endObject();
    os << "\n";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: e2e_core --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--out PATH] "
                 "[--git-rev REV]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (arg != "--tiny") {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            value = argv[++i];
        }
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' ||
                !std::isfinite(opt.seconds) || opt.seconds < 0)
                usage("--seconds takes a number >= 0");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--out") {
            opt.out = value;
        } else if (arg == "--git-rev") {
            opt.gitRev = value;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::vector<Workload> all = workloads(opt.tiny);
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto &w) {
        return opt.workload == w.name;
    });
    if (it == all.end())
        usage(("unknown workload " + opt.workload).c_str());
    const Workload &w = *it;

#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::printf("e2e_core %s seed=%llu seconds=%g trace=%d%s | git %s | "
                "nproc %u | %s | build %s\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "",
                opt.gitRev.c_str(), std::thread::hardware_concurrency(),
                compiler.c_str(), E2E_BUILD_TYPE);
    if (std::string(E2E_BUILD_TYPE) != "Release")
        std::fprintf(stderr,
                     "WARNING: e2e_core is a %s build, not Release; its "
                     "host-cost numbers are not comparable to a baseline\n",
                     E2E_BUILD_TYPE);

    Report rep;
    if (opt.trace)
        runPerLayer(w, opt, rep);
    else
        runEndToEnd(w, opt, rep);
    rep.check(std::all_of(rep.metrics.begin(), rep.metrics.end(),
                          [](const Metric &m) {
                              return std::isfinite(m.value);
                          }),
              "every metric is finite");

    for (const Metric &m : rep.metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!opt.out.empty()) {
        std::ofstream os(opt.out);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.out.c_str());
            return 2;
        }
        writeResult(os, w, opt, rep, compiler);
    }

    // The result line is compact JSON on one line (JsonWriter pretty-
    // prints), every value with all its digits.
    std::string line = std::string("{\"correct\": ") +
                       (rep.failures.empty() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(rep.attempted) +
                       ", \"failed\": " + std::to_string(rep.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        char value[32];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::fflush(stdout);
    std::cout << line << std::endl;
    return rep.failures.empty() ? 0 : 1;
}
