#include "common/metrics.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"

namespace common {

const char *
seriesKindName(SeriesKind kind)
{
    switch (kind) {
    case SeriesKind::Counter:
        return "counter";
    case SeriesKind::Gauge:
        return "gauge";
    case SeriesKind::Hist:
        return "hist";
    }
    return "?";
}

void
TimeSeriesLog::Series::push(const MetricPoint &point)
{
    if (ring_.size() < capacity_)
        ring_.push_back(point); // reserved at creation: no realloc
    else
        ring_[appended_ % capacity_] = point;
    ++appended_;
}

std::vector<MetricPoint>
TimeSeriesLog::Series::points() const
{
    std::vector<MetricPoint> out;
    out.reserve(ring_.size());
    if (appended_ <= ring_.size()) {
        out = ring_;
    } else {
        const std::size_t head = appended_ % capacity_;
        out.insert(out.end(), ring_.begin() + head, ring_.end());
        out.insert(out.end(), ring_.begin(), ring_.begin() + head);
    }
    return out;
}

TimeSeriesLog::TimeSeriesLog(Duration interval,
                             std::size_t windowCapacity)
    : interval_(interval), windowCapacity_(windowCapacity)
{
}

void
TimeSeriesLog::noteWindowEnd(Time end)
{
    lastWindowEnd_ = std::max(lastWindowEnd_, end);
}

TimeSeriesLog::Series &
TimeSeriesLog::series(std::string_view name, NodeId node, SeriesKind kind)
{
    const auto it = index_.find({std::string(name), node});
    if (it != index_.end())
        return *it->second;
    auto s = std::make_unique<Series>();
    s->name = name;
    s->node = node;
    s->kind = kind;
    s->capacity_ = windowCapacity_;
    s->ring_.reserve(windowCapacity_);
    Series *raw = s.get();
    series_.push_back(std::move(s));
    index_.emplace(std::make_pair(raw->name, node), raw);
    return *raw;
}

const TimeSeriesLog::Series *
TimeSeriesLog::find(std::string_view name, NodeId node) const
{
    const auto it = index_.find({std::string(name), node});
    return it == index_.end() ? nullptr : it->second;
}

std::vector<const TimeSeriesLog::Series *>
TimeSeriesLog::sorted() const
{
    std::vector<const Series *> out;
    out.reserve(series_.size());
    for (const auto &s : series_)
        out.push_back(s.get());
    std::sort(out.begin(), out.end(),
              [](const Series *a, const Series *b) {
                  if (a->name != b->name)
                      return a->name < b->name;
                  return a->node < b->node;
              });
    return out;
}

void
TimeSeriesLog::writeSeriesJson(JsonWriter &w, const Series &s) const
{
    w.beginObject();
    w.key("name").value(s.name);
    w.key("node").value(static_cast<std::uint64_t>(s.node));
    w.key("kind").value(seriesKindName(s.kind));
    w.key("dropped").value(s.dropped());
    w.key("points").beginArray();
    for (const MetricPoint &p : s.points()) {
        w.beginObject();
        w.key("w").value(p.windowStart);
        w.key("we").value(p.windowEnd);
        switch (s.kind) {
        case SeriesKind::Counter:
            // Counter deltas are integral; emit them exactly.
            w.key("d").value(static_cast<std::int64_t>(p.value));
            break;
        case SeriesKind::Gauge:
            w.key("v").value(p.value);
            break;
        case SeriesKind::Hist:
            w.key("n").value(p.count);
            w.key("p50").value(p.p50);
            w.key("p99").value(p.p99);
            w.key("p999").value(p.p999);
            break;
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
TimeSeriesLog::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("milana-metrics-v1");
    w.key("interval_ns").value(interval_);
    w.key("window_capacity")
        .value(static_cast<std::uint64_t>(windowCapacity_));
    w.key("last_window_end_ns").value(lastWindowEnd_);
    w.key("series").beginArray();
    for (const Series *s : sorted())
        writeSeriesJson(w, *s);
    w.endArray();
    w.endObject();
    os << "\n";
}

MetricsRegistry::MetricsRegistry(Duration interval,
                                 std::size_t windowCapacity)
    : log_(interval, windowCapacity)
{
}

void
MetricsRegistry::addStatSet(std::string prefix, NodeId node,
                            const StatSet &set)
{
    auto src = std::make_unique<StatSource>();
    src->prefix = std::move(prefix);
    src->node = node;
    src->set = &set;
    sources_.push_back(std::move(src));
}

void
MetricsRegistry::addGauge(std::string name, NodeId node,
                          std::function<double()> fn)
{
    GaugeSource g;
    g.series = &log_.series(name, node, SeriesKind::Gauge);
    g.fn = std::move(fn);
    gauges_.push_back(std::move(g));
}

void
MetricsRegistry::prime()
{
    for (auto &src : sources_) {
        for (const auto &[name, c] : src->set->counters()) {
            auto &state = src->counters[&c];
            if (state.series == nullptr) {
                scratchName_ = src->prefix;
                scratchName_ += name;
                state.series = &log_.series(scratchName_, src->node,
                                            SeriesKind::Counter);
            }
            state.prev = c.value();
        }
        for (const auto &[name, h] : src->set->histograms()) {
            auto &state = src->hists[&h];
            if (state.series == nullptr) {
                scratchName_ = src->prefix;
                scratchName_ += name;
                state.series = &log_.series(scratchName_, src->node,
                                            SeriesKind::Hist);
            }
            state.prev = h;
        }
    }
}

void
MetricsRegistry::sampleStatSource(StatSource &src,
                                  const MetricPoint &base)
{
    for (const auto &[name, c] : src.set->counters()) {
        auto &state = src.counters[&c]; // pointer-keyed: no alloc
        if (state.series == nullptr) {
            // First sighting (counter appeared mid-run): one-time
            // name build + series creation.
            scratchName_ = src.prefix;
            scratchName_ += name;
            state.series = &log_.series(scratchName_, src.node,
                                        SeriesKind::Counter);
        }
        const std::uint64_t cur = c.value();
        // A StatSet::reset() between samples (measurement-window
        // alignment) makes cur < prev; the delta is then cur itself.
        const std::uint64_t delta =
            cur >= state.prev ? cur - state.prev : cur;
        state.prev = cur;
        MetricPoint p = base;
        p.value = static_cast<double>(delta);
        state.series->push(p);
    }
    for (const auto &[name, h] : src.set->histograms()) {
        auto &state = src.hists[&h];
        if (state.series == nullptr) {
            scratchName_ = src.prefix;
            scratchName_ += name;
            state.series = &log_.series(scratchName_, src.node,
                                        SeriesKind::Hist);
        }
        state.delta.assignDelta(h, state.prev);
        state.prev = h; // same bucket count: no realloc
        MetricPoint p = base;
        p.count = state.delta.count();
        p.p50 = state.delta.p50();
        p.p99 = state.delta.p99();
        p.p999 = state.delta.p999();
        state.series->push(p);
    }
}

void
MetricsRegistry::sample(Time windowStart, Time windowEnd)
{
    if (windowEnd <= log_.lastWindowEnd())
        return;
    MetricPoint base;
    base.windowStart = windowStart;
    base.windowEnd = windowEnd;
    for (auto &src : sources_)
        sampleStatSource(*src, base);
    for (auto &g : gauges_) {
        MetricPoint p = base;
        p.value = g.fn();
        g.series->push(p);
    }
    ++samples_;
    log_.noteWindowEnd(windowEnd);
}

} // namespace common
