/**
 * @file
 * Tests for causal trace-context propagation (milana-trace-v2): the
 * ambient TraceContext across coroutine continuations, spawn, and
 * network RPC; ScopedSpan parenting; the parser's rejection of schema
 * v1; determinism of the exported trace; and the online invariant
 * monitor on hand-built event streams and a real cluster run.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/invariant_monitor.hh"
#include "common/trace.hh"
#include "net/network.hh"
#include "sim/future.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/cluster.hh"
#include "workload/retwis.hh"

using common::InvariantMonitor;
using common::ScopedSpan;
using common::TraceContext;
using common::TraceContextScope;
using common::TraceEvent;
using common::TraceKind;
using common::TraceLog;
using common::Tracer;
using common::kMicrosecond;
using common::kSecond;

namespace {

/** A tracer wired to controllable true/local clocks. */
struct TestClock
{
    common::Time trueTime = 0;
    common::Time localTime = 0;

    Tracer
    makeTracer(TraceLog &log, common::NodeId node)
    {
        Tracer tracer;
        tracer.attach(
            log, node, [this] { return trueTime; },
            [this] { return localTime; });
        return tracer;
    }
};

net::NetConfig
fastNet()
{
    net::NetConfig cfg;
    cfg.oneWayMean = 50 * kMicrosecond;
    cfg.oneWaySigma = 0;
    cfg.minLatency = 5 * kMicrosecond;
    return cfg;
}

TEST(TraceContext, InactiveByDefaultAndScopedRestore)
{
    common::setCurrentTraceContext({});
    EXPECT_FALSE(common::currentTraceContext().active());
    {
        TraceContextScope scope(TraceContext{7, 3});
        EXPECT_EQ(common::currentTraceContext().traceId, 7u);
        EXPECT_EQ(common::currentTraceContext().spanId, 3u);
        {
            TraceContextScope inner(TraceContext{9, 1});
            EXPECT_EQ(common::currentTraceContext().traceId, 9u);
        }
        EXPECT_EQ(common::currentTraceContext().traceId, 7u);
    }
    EXPECT_FALSE(common::currentTraceContext().active());
}

TEST(TraceContext, NestedScopedSpansParentCorrectly)
{
    common::setCurrentTraceContext({});
    TraceLog log;
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 1);

    const std::uint64_t txn = tracer.newTraceId();
    {
        TraceContextScope ctx(TraceContext{txn, 0});
        ScopedSpan outer(tracer, "outer");
        {
            ScopedSpan inner(tracer, "inner");
            tracer.instant("leaf");
        }
    }

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 5u); // outer B, inner B, leaf I, inner E, outer E
    const TraceEvent &outerB = events[0];
    const TraceEvent &innerB = events[1];
    const TraceEvent &leaf = events[2];
    const TraceEvent &innerE = events[3];
    const TraceEvent &outerE = events[4];

    for (const TraceEvent &e : events)
        EXPECT_EQ(e.traceId, txn);
    EXPECT_EQ(outerB.parentSpan, 0u);
    EXPECT_EQ(innerB.parentSpan, outerB.span);
    EXPECT_EQ(leaf.parentSpan, innerB.span);
    // End events carry the same causal identity as their begins.
    EXPECT_EQ(innerE.parentSpan, outerB.span);
    EXPECT_EQ(outerE.parentSpan, 0u);
}

TEST(TraceContext, SurvivesFutureContinuation)
{
    common::setCurrentTraceContext({});
    sim::Simulator s;
    sim::Promise<int> promise(s);
    std::optional<TraceContext> afterAwait;
    std::optional<TraceContext> afterSleep;

    sim::spawn([](sim::Simulator *s, sim::Future<int> f,
                  std::optional<TraceContext> *afterAwait,
                  std::optional<TraceContext> *afterSleep)
                   -> sim::Task<void> {
        TraceContextScope ctx(TraceContext{7, 3});
        (void)co_await f;
        *afterAwait = common::currentTraceContext();
        co_await sim::sleepFor(*s, 10);
        *afterSleep = common::currentTraceContext();
    }(&s, promise.future(), &afterAwait, &afterSleep));

    // The resolver runs under a *different* context; the waiter must
    // not inherit it.
    s.schedule(100, [&promise] {
        TraceContextScope resolver(TraceContext{99, 55});
        promise.set(1);
    });
    s.run();

    ASSERT_TRUE(afterAwait.has_value());
    EXPECT_EQ(afterAwait->traceId, 7u);
    EXPECT_EQ(afterAwait->spanId, 3u);
    ASSERT_TRUE(afterSleep.has_value());
    EXPECT_EQ(afterSleep->traceId, 7u);
}

TEST(TraceContext, SpawnInheritsButDoesNotLeak)
{
    common::setCurrentTraceContext({});
    sim::Simulator s;
    std::optional<TraceContext> childSaw;

    {
        TraceContextScope ctx(TraceContext{11, 4});
        sim::spawn(
            [](sim::Simulator *s,
               std::optional<TraceContext> *childSaw) -> sim::Task<void> {
                *childSaw = common::currentTraceContext();
                TraceContextScope mine(TraceContext{12, 9});
                co_await sim::sleepFor(*s, 5);
            }(&s, &childSaw));
        // The child suspended while holding its own context; the
        // spawner must still see its own.
        EXPECT_EQ(common::currentTraceContext().traceId, 11u);
        EXPECT_EQ(common::currentTraceContext().spanId, 4u);
    }
    s.run();
    ASSERT_TRUE(childSaw.has_value());
    EXPECT_EQ(childSaw->traceId, 11u);
    EXPECT_EQ(childSaw->spanId, 4u);
}

TEST(TraceContext, SurvivesNetworkRoundTrip)
{
    common::setCurrentTraceContext({});
    sim::Simulator s;
    net::Network net(s, fastNet(), common::Rng(3));
    TraceLog log;
    net.tracer().attach(
        log, net::kNetworkNode, [&s] { return s.now(); },
        [&s] { return s.now(); });

    std::optional<TraceContext> handlerSaw;
    std::optional<TraceContext> callerAfter;

    auto handler = [](std::optional<TraceContext> *saw) -> sim::Task<int> {
        *saw = common::currentTraceContext();
        co_return 1;
    };

    sim::spawn([](net::Network *net, decltype(handler) make,
                  std::optional<TraceContext> *handlerSaw,
                  std::optional<TraceContext> *callerAfter)
                   -> sim::Task<void> {
        TraceContextScope ctx(TraceContext{42, 7});
        (void)co_await net->callTyped<int>(1, 2, make(handlerSaw));
        *callerAfter = common::currentTraceContext();
    }(&net, handler, &handlerSaw, &callerAfter));
    s.run();

    // The handler ran on the remote node inside the caller's trace,
    // parented under the net.rpc span carried in the message header.
    ASSERT_TRUE(handlerSaw.has_value());
    EXPECT_EQ(handlerSaw->traceId, 42u);
    EXPECT_NE(handlerSaw->spanId, 0u);
    EXPECT_NE(handlerSaw->spanId, 7u);
    ASSERT_TRUE(callerAfter.has_value());
    EXPECT_EQ(callerAfter->traceId, 42u);
    EXPECT_EQ(callerAfter->spanId, 7u);

    // And the rpc span itself recorded the caller's causal identity.
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "net.rpc");
    EXPECT_EQ(events[0].traceId, 42u);
    EXPECT_EQ(events[0].parentSpan, 7u);
    EXPECT_EQ(events[0].span, handlerSaw->spanId);
}

// ---------------------------------------------------------------------
// Invariant monitor on hand-built event streams.

TraceEvent
instant(const char *name, std::int64_t arg = 0, std::int64_t arg2 = 0,
        std::uint64_t traceId = 0, common::NodeId node = 1)
{
    TraceEvent e;
    e.kind = TraceKind::Instant;
    e.name = name;
    e.arg = arg;
    e.arg2 = arg2;
    e.traceId = traceId;
    e.node = node;
    return e;
}

TraceEvent
spanEnd(const char *name, std::uint64_t span, std::uint64_t parent,
        const char *tag, std::int64_t arg = 0,
        std::uint64_t traceId = 0)
{
    TraceEvent e;
    e.kind = TraceKind::SpanEnd;
    e.name = name;
    e.span = span;
    e.parentSpan = parent;
    e.tag = tag;
    e.arg = arg;
    e.traceId = traceId;
    return e;
}

TEST(InvariantMonitor, DetectsCommitTimestampRegression)
{
    InvariantMonitor::Config cfg;
    cfg.failFast = false;
    InvariantMonitor monitor(cfg);
    monitor.onEvent(instant("milana.key.commit", /*key=*/9, /*ts=*/100));
    monitor.onEvent(instant("milana.key.commit", 9, 100)); // equal: legal
    monitor.onEvent(instant("milana.key.commit", 9, 150));
    EXPECT_TRUE(monitor.ok());
    monitor.onEvent(instant("milana.key.commit", 9, 120)); // regression
    EXPECT_FALSE(monitor.ok());
    ASSERT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.violations()[0].invariant, "commit-monotonic");
    // Other keys are unaffected.
    monitor.onEvent(instant("milana.key.commit", 10, 50));
    EXPECT_EQ(monitor.violationCount(), 1u);
}

TEST(InvariantMonitor, DetectsCommittedReadPastSnapshot)
{
    InvariantMonitor::Config cfg;
    cfg.failFast = false;
    cfg.checkSnapshotReads = true;
    InvariantMonitor monitor(cfg);

    // txn 5 began at ts 100 but observed a version stamped 200.
    monitor.onEvent(instant("milana.txn.read", /*key=*/1, /*ts=*/200,
                            /*traceId=*/5));
    monitor.onEvent(spanEnd("milana.txn.commit", 30, 0, "committed",
                            /*beginTs=*/100, /*traceId=*/5));
    ASSERT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.violations()[0].invariant, "snapshot-read");
    EXPECT_EQ(monitor.violations()[0].traceId, 5u);
    // The violation report carries the transaction's timeline.
    EXPECT_GE(monitor.violations()[0].timeline.size(), 2u);

    // An *aborted* txn in the same situation is fine — that is the
    // validation protocol doing its job.
    monitor.onEvent(instant("milana.txn.read", 1, 300, 6));
    monitor.onEvent(
        spanEnd("milana.txn.commit", 31, 0, "read_stale", 100, 6));
    EXPECT_EQ(monitor.violationCount(), 1u);

    // And a committed txn whose reads respect the snapshot is fine.
    monitor.onEvent(instant("milana.txn.read", 1, 90, 7));
    monitor.onEvent(
        spanEnd("milana.txn.commit", 32, 0, "committed", 100, 7));
    EXPECT_EQ(monitor.violationCount(), 1u);
}

TEST(InvariantMonitor, DetectsAckBeforeReplication)
{
    InvariantMonitor::Config cfg;
    cfg.failFast = false;
    cfg.checkReplicationBeforeAck = true;
    InvariantMonitor monitor(cfg);

    // Correct order: replication span (child of prepare span 40)
    // finishes, then the prepare acks commit.
    monitor.onEvent(
        spanEnd("milana.repl.txn_record", 41, /*parent=*/40, "", 0, 5));
    monitor.onEvent(
        spanEnd("milana.server.prepare", 40, 0, "commit", /*writes=*/2, 5));
    EXPECT_TRUE(monitor.ok());

    // Violation: prepare 50 acks with no completed replication child.
    monitor.onEvent(
        spanEnd("milana.server.prepare", 50, 0, "commit", 2, 6));
    ASSERT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.violations()[0].invariant,
              "replication-before-ack");

    // Read-only prepares (no writes ⇒ arg 0) never need replication.
    monitor.onEvent(
        spanEnd("milana.server.prepare", 60, 0, "commit", 0, 7));
    EXPECT_EQ(monitor.violationCount(), 1u);
}

TEST(InvariantMonitor, DetectsQueueDepthOverflow)
{
    InvariantMonitor::Config cfg;
    cfg.failFast = false;
    cfg.maxQueueDepth = 2;
    InvariantMonitor monitor(cfg);

    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, /*node=*/3));
    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, 3));
    monitor.onEvent(instant("flash.ssd.release", 0, 0, 0, 3));
    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, 3));
    EXPECT_TRUE(monitor.ok()); // depth never exceeded 2
    // A different node has its own counter.
    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, /*node=*/4));
    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, 4));
    EXPECT_TRUE(monitor.ok());
    monitor.onEvent(instant("flash.ssd.admit", 0, 0, 0, 4)); // 3rd in flight
    EXPECT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.violations()[0].invariant, "queue-depth");
}

TEST(InvariantMonitor, AttachesToTraceLogAndSeesEvictedEvents)
{
    // The monitor must judge the full stream even when the ring is
    // tiny and evicts almost everything.
    TraceLog log(2);
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 1);
    InvariantMonitor::Config cfg;
    cfg.failFast = false;
    InvariantMonitor monitor(cfg);
    monitor.attach(log);

    tracer.instant("milana.key.commit", {}, 9, 100);
    for (int i = 0; i < 10; ++i)
        tracer.instant("noise");
    tracer.instant("milana.key.commit", {}, 9, 50); // long since evicted
    EXPECT_FALSE(monitor.ok());
}

// ---------------------------------------------------------------------
// Whole-cluster properties.

workload::ClusterConfig
tinyCluster(common::TraceLog *trace)
{
    workload::ClusterConfig cfg;
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.numClients = 2;
    cfg.backend = workload::BackendKind::Dram;
    cfg.clocks = workload::ClockKind::Perfect;
    cfg.numKeys = 500;
    cfg.trace = trace;
    return cfg;
}

std::string
runTracedCluster()
{
    common::TraceLog log(1 << 20);
    workload::Cluster cluster(tinyCluster(&log));
    cluster.populate();
    log.clear(); // population noise is not part of the run
    cluster.start();
    workload::RetwisConfig rcfg;
    rcfg.numKeys = 500;
    workload::RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(kSecond / 5);
    std::ostringstream os;
    log.writeJson(os);
    return os.str();
}

TEST(ClusterTrace, ExportIsDeterministicAcrossRuns)
{
    const std::string a = runTracedCluster();
    const std::string b = runTracedCluster();
    EXPECT_EQ(a, b) << "same seed must produce a byte-identical trace";
}

TEST(ClusterTrace, CommittedTxnFormsOneParentChain)
{
    const std::string json = runTracedCluster();
    common::ParsedTrace trace;
    std::string error;
    ASSERT_TRUE(common::parseTraceJson(json, trace, error)) << error;

    // Only v2 is read: the same document stamped v1 is rejected.
    std::string v1 = json;
    const std::string v2Schema = "milana-trace-v2";
    v1.replace(v1.find(v2Schema), v2Schema.size(), "milana-trace-v1");
    common::ParsedTrace rejected;
    std::string v1Error;
    EXPECT_FALSE(common::parseTraceJson(v1, rejected, v1Error));
    EXPECT_NE(v1Error.find("milana-trace-v1"), std::string::npos)
        << v1Error;

    // Pick a committed transaction.
    std::uint64_t txn = 0, commitSpan = 0;
    for (const TraceEvent &e : trace.events) {
        if (e.kind == TraceKind::SpanEnd &&
            e.name == "milana.txn.commit" && e.tag == "committed" &&
            e.traceId != 0) {
            txn = e.traceId;
            commitSpan = e.span;
            break;
        }
    }
    ASSERT_NE(txn, 0u) << "no committed transaction in the trace";

    // Every event of that transaction shares the trace id, and the
    // server-side prepare span chains up to the client's commit span.
    std::unordered_map<std::uint64_t, std::uint64_t> parentOf;
    for (const TraceEvent &e : trace.events)
        if (e.traceId == txn && e.kind == TraceKind::SpanBegin)
            parentOf[e.span] = e.parentSpan;

    std::uint64_t prepareSpan = 0;
    for (const TraceEvent &e : trace.events) {
        if (e.traceId == txn && e.kind == TraceKind::SpanBegin &&
            e.name == "milana.server.prepare") {
            prepareSpan = e.span;
            break;
        }
    }
    ASSERT_NE(prepareSpan, 0u)
        << "committed txn has no traced server prepare";

    bool reached = false;
    std::uint64_t cursor = prepareSpan;
    for (int hops = 0; hops < 16 && cursor != 0; ++hops) {
        if (cursor == commitSpan) {
            reached = true;
            break;
        }
        const auto it = parentOf.find(cursor);
        if (it == parentOf.end())
            break;
        cursor = it->second;
    }
    EXPECT_TRUE(reached) << "prepare span does not chain to the commit "
                            "span via parent links";
}

TEST(ClusterTrace, MonitorPassesOnCleanRun)
{
    common::TraceLog log(1 << 20);
    InvariantMonitor::Config mcfg;
    mcfg.checkSnapshotReads = true; // DRAM backend is multi-version
    mcfg.failFast = false;
    InvariantMonitor monitor(mcfg);
    monitor.attach(log);

    workload::Cluster cluster(tinyCluster(&log));
    cluster.populate();
    cluster.start();
    workload::RetwisConfig rcfg;
    rcfg.numKeys = 500;
    workload::RetwisWorkload fleet(cluster, rcfg);
    fleet.start();
    cluster.sim().runFor(kSecond / 5);

    std::ostringstream report;
    monitor.report(report);
    EXPECT_TRUE(monitor.ok()) << report.str();
    EXPECT_GT(fleet.totalCommits(), 0u);
}

} // namespace
