#include "common/stats.hh"

#include <sstream>

#include "common/json.hh"

namespace common {

const Counter *
StatSet::findCounter(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Histogram *
StatSet::findHistogram(std::string_view name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t
StatSet::counterValue(std::string_view name) const
{
    const Counter *ctr = findCounter(name);
    return ctr == nullptr ? 0 : ctr->value();
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &[name, ctr] : other.counters_)
        counter(name).inc(ctr.value());
    for (const auto &[name, hist] : other.histograms_)
        histogram(name).merge(hist);
}

void
StatSet::reset()
{
    for (auto &[name, ctr] : counters_)
        ctr.reset();
    for (auto &[name, hist] : histograms_)
        hist.reset();
}

std::string
StatSet::dump(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, ctr] : counters_)
        os << prefix << name << " = " << ctr.value() << "\n";
    for (const auto &[name, hist] : histograms_)
        os << prefix << name << ": " << hist.summary() << "\n";
    return os.str();
}

namespace {

void
histogramToJson(JsonWriter &w, const Histogram &hist)
{
    w.beginObject();
    w.key("count").value(hist.count());
    w.key("min").value(hist.min());
    w.key("max").value(hist.max());
    w.key("mean").value(hist.mean());
    w.key("p50").value(hist.p50());
    w.key("p90").value(hist.quantile(0.90));
    w.key("p95").value(hist.p95());
    w.key("p99").value(hist.p99());
    w.key("p999").value(hist.p999());
    w.endObject();
}

} // namespace

void
StatSet::toJson(JsonWriter &w, const std::string &prefix) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, ctr] : counters_)
        w.key(prefix + name).value(ctr.value());
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, hist] : histograms_) {
        w.key(prefix + name);
        histogramToJson(w, hist);
    }
    w.endObject();
    w.endObject();
}

} // namespace common
