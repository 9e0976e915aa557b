/**
 * @file
 * Time-resolved metrics plane: sampled time-series over StatSets.
 *
 * End-of-run StatSet totals collapse a whole run into one number per
 * metric; the relationships this simulator exists to study (abort
 * rate vs. instantaneous clock skew, queue depth vs. latency) are
 * functions of simulated time. This module snapshots every registered
 * StatSet on a fixed simulated-time interval and keeps, per window:
 *
 *  - counter deltas (divide by the window width for rates),
 *  - histogram quantiles (p50/p99/p999) of only the samples recorded
 *    in that window (bucket-wise snapshot subtraction),
 *  - gauge values sampled at the window boundary.
 *
 * Storage is pre-sized ring buffers: once every series name has been
 * seen, sampling allocates nothing. Sampling runs on simulated time
 * only, so the exported document is byte-identical across runs of
 * one seed and any --jobs value.
 *
 * Export schema: `milana-metrics-v1` (see OBSERVABILITY.md).
 */

#ifndef COMMON_METRICS_HH
#define COMMON_METRICS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace common {

class JsonWriter;

enum class SeriesKind : std::uint8_t
{
    Counter, ///< per-window delta of a monotonic counter
    Gauge,   ///< instantaneous value at the window boundary
    Hist,    ///< per-window histogram quantiles
};

const char *seriesKindName(SeriesKind kind);

/** One fixed-size sample of one series over one window. */
struct MetricPoint
{
    Time windowStart = 0;
    Time windowEnd = 0;
    /** Counter: delta over the window. Gauge: sampled value. */
    double value = 0.0;
    /** Histogram windows only: samples recorded in the window. */
    std::uint64_t count = 0;
    std::int64_t p50 = 0;
    std::int64_t p99 = 0;
    std::int64_t p999 = 0;
};

/**
 * Named per-node series of windowed samples, each a pre-sized ring
 * buffer (the most recent @c windowCapacity windows are kept; older
 * points are counted as dropped).
 */
class TimeSeriesLog
{
  public:
    static constexpr std::size_t kDefaultWindowCapacity = 4096;

    struct Series
    {
        std::string name;
        NodeId node = 0;
        SeriesKind kind = SeriesKind::Counter;

        void push(const MetricPoint &point);
        std::uint64_t dropped() const
        {
            return appended_ > ring_.size() ? appended_ - ring_.size()
                                            : 0;
        }
        std::uint64_t appended() const { return appended_; }
        /** Points in windowStart order (oldest first). */
        std::vector<MetricPoint> points() const;

      private:
        friend class TimeSeriesLog;
        std::vector<MetricPoint> ring_;
        std::size_t capacity_ = 0;
        std::uint64_t appended_ = 0;
    };

    explicit TimeSeriesLog(
        Duration interval,
        std::size_t windowCapacity = kDefaultWindowCapacity);

    Duration interval() const { return interval_; }

    /** End of the last sampled window (0 until the first sample). */
    Time lastWindowEnd() const { return lastWindowEnd_; }
    void noteWindowEnd(Time end);

    /**
     * Find-or-create a series. Creation reserves the full ring
     * capacity up front, so subsequent push() calls never allocate.
     */
    Series &series(std::string_view name, NodeId node, SeriesKind kind);
    const Series *find(std::string_view name, NodeId node) const;

    /** All series sorted by (name, node). */
    std::vector<const Series *> sorted() const;

    std::size_t seriesCount() const { return series_.size(); }

    /** Write the `milana-metrics-v1` JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    void writeSeriesJson(JsonWriter &w, const Series &s) const;

    Duration interval_;
    std::size_t windowCapacity_;
    Time lastWindowEnd_ = 0;
    std::vector<std::unique_ptr<Series>> series_;
    std::map<std::pair<std::string, NodeId>, Series *> index_;
};

/**
 * Samples registered StatSets and gauge callbacks into a
 * TimeSeriesLog. Not thread-safe, like the simulator that samples it.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(
        Duration interval,
        std::size_t windowCapacity = TimeSeriesLog::kDefaultWindowCapacity);

    TimeSeriesLog &log() { return log_; }
    const TimeSeriesLog &log() const { return log_; }
    Duration interval() const { return log_.interval(); }

    /**
     * Register a StatSet: every counter `n` in it becomes a Counter
     * series `<prefix><n>` and every histogram a Hist series, all
     * attributed to @p node. Counters that first appear mid-run are
     * picked up at the next sample. The set must outlive the
     * registry's last sample() call.
     */
    void addStatSet(std::string prefix, NodeId node,
                    const StatSet &set);

    /** Register an instantaneous gauge callback. */
    void addGauge(std::string name, NodeId node,
                  std::function<double()> fn);

    /**
     * Snapshot current values as the delta baseline WITHOUT emitting
     * points. Call at measurement start so the first window does not
     * absorb setup work (e.g. store population).
     */
    void prime();

    /**
     * Sample every source for the window [windowStart, windowEnd).
     * No-op if windowEnd is not past the last sampled window's end
     * (making an end-of-run partial flush idempotent).
     */
    void sample(Time windowStart, Time windowEnd);

    std::uint64_t samples() const { return samples_; }

  private:
    struct CounterState
    {
        TimeSeriesLog::Series *series = nullptr;
        std::uint64_t prev = 0;
    };
    struct HistState
    {
        TimeSeriesLog::Series *series = nullptr;
        Histogram prev;
        Histogram delta; ///< scratch, reused every window
    };
    struct StatSource
    {
        std::string prefix;
        NodeId node = 0;
        const StatSet *set = nullptr;
        // Keyed by the stable addresses of the StatSet's map values:
        // steady-state lookups are pointer-keyed, no string building.
        std::map<const Counter *, CounterState> counters;
        std::map<const Histogram *, HistState> hists;
    };
    struct GaugeSource
    {
        TimeSeriesLog::Series *series = nullptr;
        std::function<double()> fn;
    };

    void sampleStatSource(StatSource &src, const MetricPoint &base);

    TimeSeriesLog log_;
    std::vector<std::unique_ptr<StatSource>> sources_;
    std::vector<GaugeSource> gauges_;
    std::uint64_t samples_ = 0;
    std::string scratchName_; ///< reused for series-name building
};

} // namespace common

#endif // COMMON_METRICS_HH
