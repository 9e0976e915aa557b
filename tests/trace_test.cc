/**
 * @file
 * Tests for the observability layer: TraceLog ring-buffer bounding and
 * ordering, Tracer/ScopedSpan emission semantics, and the trace and
 * StatSet JSON exporters (including parse-back round trips and
 * merge()).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/trace.hh"

using common::JsonValue;
using common::ScopedSpan;
using common::StatSet;
using common::TraceEvent;
using common::TraceKind;
using common::TraceLog;
using common::Tracer;

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

/** @p stats as the JSON object a bench report embeds. */
std::string
statsJson(const StatSet &stats, const std::string &prefix = "")
{
    std::ostringstream os;
    common::JsonWriter w(os);
    stats.toJson(w, prefix);
    return os.str();
}

TEST(TraceLog, BoundedRingEvictsOldest)
{
    TraceLog log(8);
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 1);

    for (int i = 0; i < 20; ++i) {
        clock.trueTime = i;
        tracer.instant("test.event", {}, i);
    }

    EXPECT_EQ(log.capacity(), 8u);
    EXPECT_EQ(log.size(), 8u);
    EXPECT_EQ(log.recorded(), 20u);
    EXPECT_EQ(log.dropped(), 12u);

    // Survivors are exactly the 8 newest, oldest first.
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 12 + i);
        EXPECT_EQ(events[i].arg, static_cast<std::int64_t>(12 + i));
    }
}

TEST(TraceLog, SeqBreaksTiesBetweenIdenticalTimestamps)
{
    // The simulator runs many events at the same instant; the trace
    // must preserve emission order even when every timestamp is equal.
    TraceLog log;
    TestClock clock;
    clock.trueTime = 42;
    Tracer a = clock.makeTracer(log, 1);
    Tracer b = clock.makeTracer(log, 2);

    a.instant("first");
    b.instant("second");
    a.instant("third");

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].name, "first");
    EXPECT_EQ(events[1].name, "second");
    EXPECT_EQ(events[2].name, "third");
    EXPECT_LT(events[0].seq, events[1].seq);
    EXPECT_LT(events[1].seq, events[2].seq);
    for (const TraceEvent &e : events)
        EXPECT_EQ(e.trueTime, 42);
}

TEST(TraceLog, ClearRestartsSequence)
{
    TraceLog log(4);
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 1);
    tracer.instant("x");
    tracer.instant("y");
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
    tracer.instant("z");
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 0u);
}

TEST(Tracer, DisabledTracerIsANoOp)
{
    Tracer tracer; // never attached
    EXPECT_FALSE(tracer.enabled());
    tracer.instant("ignored");
    EXPECT_EQ(tracer.begin("ignored"), 0u);
    {
        ScopedSpan span(tracer, "ignored");
        span.setTag("tag");
    }
    // Nothing to assert against a log — the point is no crash and no
    // span id allocation happened (begin returned 0).
}

TEST(Tracer, StampsBothClocks)
{
    TraceLog log;
    TestClock clock;
    clock.trueTime = 1000;
    clock.localTime = 1053; // 53 ns of clock error
    Tracer tracer = clock.makeTracer(log, 7);

    tracer.instant("clock.check", "tag", -5);

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].trueTime, 1000);
    EXPECT_EQ(events[0].localTime, 1053);
    EXPECT_EQ(events[0].node, 7u);
    EXPECT_EQ(events[0].tag, "tag");
    EXPECT_EQ(events[0].arg, -5);
}

TEST(ScopedSpan, PairsBeginAndEndWithLateTag)
{
    TraceLog log;
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 3);

    clock.trueTime = 100;
    {
        ScopedSpan span(tracer, "milana.txn.commit", "rw");
        clock.trueTime = 250;
        span.setTag("read_stale"); // outcome discovered mid-span
        span.setArg(9);
    }

    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, TraceKind::SpanBegin);
    EXPECT_EQ(events[1].kind, TraceKind::SpanEnd);
    EXPECT_EQ(events[0].span, events[1].span);
    EXPECT_NE(events[0].span, 0u);
    EXPECT_EQ(events[0].trueTime, 100);
    EXPECT_EQ(events[1].trueTime, 250);
    EXPECT_EQ(events[0].tag, "rw");
    EXPECT_EQ(events[1].tag, "read_stale");
    EXPECT_EQ(events[1].arg, 9);
}

TEST(ScopedSpan, FinishIsIdempotent)
{
    TraceLog log;
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 1);
    {
        ScopedSpan span(tracer, "s");
        span.finish();
        span.finish(); // second finish and the destructor must no-op
    }
    EXPECT_EQ(log.snapshot().size(), 2u);
}

TEST(TraceLog, JsonExportRoundTrips)
{
    TraceLog log(4);
    TestClock clock;
    Tracer tracer = clock.makeTracer(log, 2);
    for (int i = 0; i < 6; ++i) {
        clock.trueTime = 10 * i;
        clock.localTime = 10 * i + 1;
        tracer.instant("e", "t", i);
    }

    std::ostringstream os;
    log.writeJson(os);
    std::string error;
    const JsonValue doc = JsonValue::parse(os.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_EQ(doc.at("schema").asString(), "milana-trace-v2");
    EXPECT_EQ(doc.at("recorded").asInt(), 6);
    EXPECT_EQ(doc.at("dropped").asInt(), 2);
    ASSERT_EQ(doc.at("events").size(), 4u);
    const JsonValue &first = doc.at("events")[0];
    EXPECT_EQ(first.at("seq").asInt(), 2);
    EXPECT_EQ(first.at("t").asInt(), 20);
    EXPECT_EQ(first.at("lt").asInt(), 21);
    EXPECT_EQ(first.at("kind").asString(), "I");

    // A name and a tag holding JSON's and CSV's special characters
    // come back from the trace loader unchanged.
    TraceLog quoted;
    Tracer q = clock.makeTracer(quoted, 1);
    q.instant("a,b\"c\\d", "x,y\"z\\w");
    std::ostringstream qs;
    quoted.writeJson(qs);
    common::ParsedTrace parsed;
    ASSERT_TRUE(common::parseTraceJson(qs.str(), parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].name, "a,b\"c\\d");
    EXPECT_EQ(parsed.events[0].tag, "x,y\"z\\w");
}

TEST(StatSet, FindDoesNotCreate)
{
    StatSet stats;
    EXPECT_EQ(stats.findCounter("nope"), nullptr);
    EXPECT_EQ(stats.findHistogram("nope"), nullptr);
    EXPECT_TRUE(stats.counters().empty());
    EXPECT_TRUE(stats.histograms().empty());

    stats.counter("yes").inc(3);
    ASSERT_NE(stats.findCounter("yes"), nullptr);
    EXPECT_EQ(stats.findCounter("yes")->value(), 3u);
}

TEST(StatSet, JsonExportRoundTrips)
{
    StatSet stats;
    stats.counter("milana.prepares").inc(41);
    stats.counter("txn.aborted").inc(7);
    for (int i = 1; i <= 100; ++i)
        stats.histogram("txn.latency").record(i * 1000);

    std::string error;
    const JsonValue doc =
        JsonValue::parse(statsJson(stats, "client."), &error);
    ASSERT_TRUE(doc.isObject()) << error;

    const JsonValue &counters = doc.at("counters");
    EXPECT_EQ(counters.at("client.milana.prepares").asInt(), 41);
    EXPECT_EQ(counters.at("client.txn.aborted").asInt(), 7);

    const JsonValue &latency =
        doc.at("histograms").at("client.txn.latency");
    EXPECT_EQ(latency.at("count").asInt(), 100);
    EXPECT_EQ(latency.at("min").asInt(), 1000);
    EXPECT_EQ(latency.at("max").asInt(), 100'000);
    // The histogram is approximate (relative error < 2/64); check the
    // quantiles landed in the right neighborhood, not exact values.
    EXPECT_NEAR(static_cast<double>(latency.at("p50").asInt()), 50'000,
                5'000);
    EXPECT_NEAR(static_cast<double>(latency.at("p99").asInt()), 99'000,
                8'000);
    EXPECT_NEAR(latency.at("mean").asDouble(), 50'500, 2'000);
}

TEST(StatSet, MergedSetsExportCombinedValues)
{
    StatSet a, b;
    a.counter("txn.committed").inc(10);
    b.counter("txn.committed").inc(5);
    b.counter("txn.aborted").inc(2);
    for (int i = 0; i < 50; ++i) {
        a.histogram("lat").record(100);
        b.histogram("lat").record(300);
    }

    a.merge(b);

    std::string error;
    const JsonValue doc = JsonValue::parse(statsJson(a), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_EQ(doc.at("counters").at("txn.committed").asInt(), 15);
    EXPECT_EQ(doc.at("counters").at("txn.aborted").asInt(), 2);
    const JsonValue &lat = doc.at("histograms").at("lat");
    EXPECT_EQ(lat.at("count").asInt(), 100);
    EXPECT_EQ(lat.at("min").asInt(), 100);
    EXPECT_EQ(lat.at("max").asInt(), 300);
    EXPECT_NEAR(lat.at("mean").asDouble(), 200.0, 10.0);
}

} // namespace
