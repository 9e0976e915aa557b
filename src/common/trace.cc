#include "common/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.hh"
#include "common/metrics.hh"

namespace common {

const char *
traceKindCode(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Instant: return "I";
      case TraceKind::SpanBegin: return "B";
      case TraceKind::SpanEnd: return "E";
    }
    return "?";
}

TraceLog::TraceLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1))
{
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
TraceLog::append(TraceEvent event)
{
    event.seq = appended_++;
    if (observer_)
        observer_(event);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(event));
        return;
    }
    // Ring: slot index is seq modulo capacity, so the oldest surviving
    // event is always the one this append evicts.
    ring_[static_cast<std::size_t>(event.seq % capacity_)] =
        std::move(event);
}

std::size_t
TraceLog::size() const
{
    return ring_.size();
}

std::uint64_t
TraceLog::dropped() const
{
    return appended_ - ring_.size();
}

void
TraceLog::clear()
{
    ring_.clear();
    appended_ = 0; // seq restarts; span/trace ids stay unique across clears
}

std::vector<TraceEvent>
TraceLog::snapshot() const
{
    std::vector<TraceEvent> events = ring_;
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.trueTime != b.trueTime)
                      return a.trueTime < b.trueTime;
                  return a.seq < b.seq;
              });
    return events;
}

void
TraceLog::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("milana-trace-v2");
    w.key("capacity").value(static_cast<std::uint64_t>(capacity_));
    w.key("recorded").value(recorded());
    w.key("dropped").value(dropped());
    w.key("events").beginArray();
    for (const TraceEvent &e : snapshot()) {
        os << "\n";
        w.beginObject();
        w.key("seq").value(e.seq);
        w.key("t").value(e.trueTime);
        w.key("lt").value(e.localTime);
        w.key("node").value(e.node);
        w.key("kind").value(traceKindCode(e.kind));
        w.key("span").value(e.span);
        if (e.traceId != 0)
            w.key("trace").value(e.traceId);
        if (e.parentSpan != 0)
            w.key("parent").value(e.parentSpan);
        w.key("name").value(e.name);
        if (!e.tag.empty())
            w.key("tag").value(e.tag);
        if (e.arg != 0)
            w.key("arg").value(e.arg);
        if (e.arg2 != 0)
            w.key("arg2").value(e.arg2);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

namespace {

/** Category shown in Perfetto's track/legend: the name's first dot
 *  component ("milana", "net", "flash", ...). */
std::string
perfettoCategory(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/** Simulated ns -> trace-event µs with the fraction preserved. */
double
perfettoTs(Time ns)
{
    return static_cast<double>(ns) / 1000.0;
}

} // namespace

void
TraceLog::writePerfetto(std::ostream &os,
                        const TimeSeriesLog *metrics) const
{
    // Chrome trace-event "JSON object format". Spans are emitted as
    // *async* events ("b"/"e" keyed by pid+cat+id) rather than
    // duration events ("B"/"E"): duration events pair on a per-thread
    // stack, and interleaved coroutine spans on one simulated node
    // would mis-nest. One process per node, all on tid 1; Perfetto
    // groups async tracks by name under the node's process.
    const std::vector<TraceEvent> events = snapshot();
    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();

    std::map<NodeId, bool> seenNode;
    for (const TraceEvent &e : events)
        seenNode.emplace(e.node, true);
    if (metrics != nullptr)
        for (const TimeSeriesLog::Series *s : metrics->sorted())
            seenNode.emplace(s->node, true);
    for (const auto &[node, unused] : seenNode) {
        os << "\n";
        char label[64];
        std::snprintf(label, sizeof label, "node %u", node);
        w.beginObject();
        w.key("ph").value("M");
        w.key("name").value("process_name");
        w.key("pid").value(node);
        w.key("tid").value(std::uint64_t{1});
        w.key("args").beginObject();
        w.key("name").value(label);
        w.endObject();
        w.endObject();
    }

    for (const TraceEvent &e : events) {
        os << "\n";
        char id[32];
        std::snprintf(id, sizeof id, "0x%" PRIx64, e.span);
        w.beginObject();
        switch (e.kind) {
          case TraceKind::Instant:
            w.key("ph").value("i");
            w.key("s").value("t");
            break;
          case TraceKind::SpanBegin:
            w.key("ph").value("b");
            w.key("id").value(id);
            break;
          case TraceKind::SpanEnd:
            w.key("ph").value("e");
            w.key("id").value(id);
            break;
        }
        w.key("ts").value(perfettoTs(e.trueTime));
        w.key("pid").value(e.node);
        w.key("tid").value(std::uint64_t{1});
        w.key("cat").value(perfettoCategory(e.name));
        w.key("name").value(e.name);
        w.key("args").beginObject();
        if (e.traceId != 0)
            w.key("trace").value(e.traceId);
        if (e.parentSpan != 0)
            w.key("parent").value(e.parentSpan);
        if (!e.tag.empty())
            w.key("tag").value(e.tag);
        if (e.arg != 0)
            w.key("arg").value(e.arg);
        if (e.arg2 != 0)
            w.key("arg2").value(e.arg2);
        w.key("lt").value(e.localTime);
        w.endObject();
        w.endObject();
    }

    // Metric series as counter tracks, one per (node, series name):
    // counters as per-second rates, gauges raw, histograms as the
    // window's p99 — timelines render alongside the span tracks.
    if (metrics != nullptr) {
        for (const TimeSeriesLog::Series *s : metrics->sorted()) {
            for (const MetricPoint &p : s->points()) {
                double value = 0.0;
                std::string name = s->name;
                switch (s->kind) {
                case SeriesKind::Counter: {
                    const double secs =
                        toSeconds(p.windowEnd - p.windowStart);
                    value = secs > 0 ? p.value / secs : 0.0;
                    break;
                }
                case SeriesKind::Gauge:
                    value = p.value;
                    break;
                case SeriesKind::Hist:
                    name += ".p99";
                    value = static_cast<double>(p.p99);
                    break;
                }
                os << "\n";
                w.beginObject();
                w.key("ph").value("C");
                w.key("ts").value(perfettoTs(p.windowStart));
                w.key("pid").value(s->node);
                w.key("tid").value(std::uint64_t{1});
                w.key("cat").value(perfettoCategory(name));
                w.key("name").value(name);
                w.key("args").beginObject();
                w.key("value").value(value);
                w.endObject();
                w.endObject();
            }
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

bool
parseTraceJson(std::string_view text, ParsedTrace &out, std::string &error)
{
    const JsonValue doc = JsonValue::parse(text, &error);
    if (!doc.isObject()) {
        if (error.empty())
            error = "trace document is not a JSON object";
        return false;
    }
    const std::string &schema = doc.at("schema").asString();
    if (schema != "milana-trace-v2") {
        error = "unsupported trace schema \"" + schema +
                "\" (expected milana-trace-v2)";
        return false;
    }
    out.capacity = static_cast<std::uint64_t>(doc.at("capacity").asInt());
    out.recorded = static_cast<std::uint64_t>(doc.at("recorded").asInt());
    out.dropped = static_cast<std::uint64_t>(doc.at("dropped").asInt());
    out.events.clear();

    const JsonValue &events = doc.at("events");
    if (!events.isArray()) {
        error = "trace document has no \"events\" array";
        return false;
    }
    out.events.reserve(events.size());
    for (const JsonValue &j : events.items()) {
        TraceEvent e;
        e.seq = static_cast<std::uint64_t>(j.at("seq").asInt());
        e.trueTime = j.at("t").asInt();
        e.localTime = j.at("lt").asInt();
        e.node = static_cast<NodeId>(j.at("node").asInt());
        const std::string &kind = j.at("kind").asString();
        if (kind == "I") {
            e.kind = TraceKind::Instant;
        } else if (kind == "B") {
            e.kind = TraceKind::SpanBegin;
        } else if (kind == "E") {
            e.kind = TraceKind::SpanEnd;
        } else {
            error = "event seq " + std::to_string(e.seq) +
                    " has unknown kind \"" + kind + "\"";
            return false;
        }
        e.span = static_cast<std::uint64_t>(j.at("span").asInt());
        e.traceId = static_cast<std::uint64_t>(j.at("trace").asInt());
        e.parentSpan = static_cast<std::uint64_t>(j.at("parent").asInt());
        e.name = j.at("name").asString();
        e.tag = j.at("tag").asString();
        e.arg = j.at("arg").asInt();
        e.arg2 = j.at("arg2").asInt();
        out.events.push_back(std::move(e));
    }
    return true;
}

void
Tracer::attach(TraceLog &log, NodeId node, TimeFn true_now,
               TimeFn local_now)
{
    log_ = &log;
    node_ = node;
    trueNow_ = std::move(true_now);
    localNow_ = std::move(local_now);
}

void
Tracer::emit(TraceKind kind, std::uint64_t span, std::string_view name,
             std::string_view tag, std::int64_t arg, std::int64_t arg2)
{
    const TraceContext &ctx = currentTraceContext();
    TraceEvent e;
    e.trueTime = trueNow_ ? trueNow_() : 0;
    e.localTime = localNow_ ? localNow_() : e.trueTime;
    e.node = node_;
    e.kind = kind;
    e.span = span;
    e.traceId = ctx.traceId;
    e.parentSpan = ctx.spanId;
    e.name.assign(name);
    e.tag.assign(tag);
    e.arg = arg;
    e.arg2 = arg2;
    log_->append(std::move(e));
}

void
Tracer::instant(std::string_view name, std::string_view tag,
                std::int64_t arg, std::int64_t arg2)
{
    if (!enabled())
        return;
    emit(TraceKind::Instant, 0, name, tag, arg, arg2);
}

std::uint64_t
Tracer::begin(std::string_view name, std::string_view tag,
              std::int64_t arg)
{
    if (!enabled())
        return 0;
    const std::uint64_t span = log_->nextSpanId();
    emit(TraceKind::SpanBegin, span, name, tag, arg, 0);
    return span;
}

void
Tracer::end(std::uint64_t span, std::string_view name,
            std::string_view tag, std::int64_t arg, std::int64_t arg2)
{
    if (!enabled() || span == 0)
        return;
    emit(TraceKind::SpanEnd, span, name, tag, arg, arg2);
}

ScopedSpan::ScopedSpan(Tracer &tracer, std::string_view name,
                       std::string_view tag)
    : tracer_(tracer), name_(name), tag_(tag)
{
    if (!tracer_.enabled()) {
        done_ = true;
        return;
    }
    prev_ = currentTraceContext();
    span_ = tracer_.begin(name_, tag_);
    // Children (spans, instants, RPC handlers resumed later) parent
    // under this span and inherit the ambient trace id.
    setCurrentTraceContext(TraceContext{prev_.traceId, span_});
}

void
ScopedSpan::finish()
{
    if (done_)
        return;
    done_ = true;
    // Restore the surrounding context *before* emitting the end, so
    // the SpanEnd record carries the same trace/parent as the begin.
    setCurrentTraceContext(prev_);
    tracer_.end(span_, name_, tag_, arg_, arg2_);
}

} // namespace common
