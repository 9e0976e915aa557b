/**
 * @file
 * Lightweight named statistics, in the spirit of gem5's stats package.
 *
 * Components register counters and histograms with a StatSet; harnesses
 * dump the set after a run. Everything is plain value types — no global
 * registry — so two simulations in one process never interfere.
 */

#ifndef COMMON_STATS_HH
#define COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/histogram.hh"

namespace common {

class JsonWriter;

/** A monotonically increasing named counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of counters and histograms.
 *
 * Lookup creates on first use, so call sites read naturally:
 * @code
 *   stats.counter("txn.committed").inc();
 *   stats.histogram("txn.latency").record(latency);
 * @endcode
 *
 * Lookups take the name as a string_view and compare it in place, so
 * a hot-path increment builds no std::string; only the first use of a
 * name copies it into the set. Entries are never erased, so a
 * Counter& or Histogram& stays valid for the set's lifetime.
 */
class StatSet
{
  public:
    template <typename T>
    using Map = std::map<std::string, T, std::less<>>;

    Counter &counter(std::string_view name) { return entry(counters_, name); }
    Histogram &
    histogram(std::string_view name)
    {
        return entry(histograms_, name);
    }

    /**
     * Read-only lookup that never creates: exporters and report code
     * must use these (or the const maps) so serializing a set cannot
     * grow it — counter()/histogram() are create-on-read by design.
     * @return nullptr when the name was never recorded.
     */
    const Counter *findCounter(std::string_view name) const;
    const Histogram *findHistogram(std::string_view name) const;

    const Map<Counter> &counters() const { return counters_; }
    const Map<Histogram> &histograms() const { return histograms_; }

    /** Value of a counter, or 0 when absent (read-only convenience). */
    std::uint64_t counterValue(std::string_view name) const;

    /** Merge all stats from another set into this one. */
    void merge(const StatSet &other);

    void reset();

    /** Multi-line human-readable dump. */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Emit this set as one JSON object value on an open writer:
     * `{"counters": {...}, "histograms": {name: {count,min,max,mean,
     * p50,p90,p95,p99,p999}, ...}}`. @p prefix (e.g. "client.") is
     * prepended to every metric name, producing the fully-qualified
     * `layer.component.metric` names of OBSERVABILITY.md.
     */
    void toJson(JsonWriter &w, const std::string &prefix = "") const;

  private:
    template <typename T>
    static T &
    entry(Map<T> &map, std::string_view name)
    {
        auto it = map.lower_bound(name);
        if (it == map.end() || it->first != name)
            it = map.emplace_hint(it, std::piecewise_construct,
                                  std::forward_as_tuple(name),
                                  std::forward_as_tuple());
        return it->second;
    }

    Map<Counter> counters_;
    Map<Histogram> histograms_;
};

/**
 * A counter or histogram of a StatSet, looked up by name once.
 *
 * Hot paths hold one as a member beside their set and bump it instead
 * of calling counter("literal"), which walks the set's map:
 * @code
 *   common::CounterHandle gets_{stats_, "milana.gets"};
 *   gets_.inc();
 * @endcode
 * The first inc()/record() creates the entry exactly as
 * counter(name)/histogram(name) would, so an unused handle leaves the
 * set unchanged and names appear at their first use as before. Later
 * calls go straight to the bound entry, which stays valid for the
 * set's lifetime (entries are never erased, not even by reset()).
 * @p name is not copied: pass a literal or static storage. A handle
 * cannot be copied, so an object holding one cannot be copied away
 * from the set it is bound to.
 */
template <typename T>
class StatHandle
{
  public:
    StatHandle(StatSet &set, std::string_view name)
        : set_(set), name_(name)
    {
    }
    StatHandle(const StatHandle &) = delete;
    StatHandle &operator=(const StatHandle &) = delete;

    /** The entry, created in the set on the first call. */
    T &
    get()
    {
        if (entry_ == nullptr) [[unlikely]] {
            if constexpr (std::is_same_v<T, Counter>)
                entry_ = &set_.counter(name_);
            else
                entry_ = &set_.histogram(name_);
        }
        return *entry_;
    }

    void inc(std::uint64_t by = 1) { get().inc(by); }
    void record(std::int64_t value) { get().record(value); }

  private:
    StatSet &set_;
    std::string_view name_;
    T *entry_ = nullptr;
};

using CounterHandle = StatHandle<Counter>;
using HistogramHandle = StatHandle<Histogram>;

} // namespace common

#endif // COMMON_STATS_HH
