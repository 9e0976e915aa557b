/**
 * @file
 * Shared helpers for the experiment harnesses: a tiny flag parser
 * (--name=value for a value flag, a bare --name for a switch), table
 * printing, and the machine-readable report
 * writer behind every harness's --json flag. Every bench accepts:
 *
 *   --seconds=N   simulated measurement seconds per cell
 *   --warmup=N    simulated warm-up seconds (excluded from stats)
 *   --keys=N      key-space size
 *   --seed=N      root RNG seed
 *   --full        paper-scale parameters (slower)
 *   --json=PATH   write a milana-bench-v1 JSON report to PATH
 *
 * and rejects any other flag it does not read (Args::rejectUnknown).
 *
 * Defaults are sized so the whole bench suite finishes in minutes of
 * wall time while preserving the paper's shapes; EXPERIMENTS.md records
 * the settings used for the committed results.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/invariant_monitor.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "workload/cluster.hh"

namespace bench {

class Args
{
  public:
    Args(int argc, char **argv) : args_(argv + 1, argv + argc) {}

    /**
     * A real-valued flag (every one is a Zipf exponent): a finite,
     * non-negative decimal such as "0.8" or "1". Returns @p def when
     * absent; exits 2, naming the flag, on anything else, such as "",
     * "abc", "0.8x", "-1" or "inf".
     */
    double
    getDouble(const std::string &name, double def) const
    {
        const std::optional<std::string> text = valueOf(name);
        if (!text)
            return def;
        double v = 0;
        const char *end = text->data() + text->size();
        const auto [ptr, ec] = std::from_chars(text->data(), end, v);
        if (text->empty() || ec != std::errc() || ptr != end ||
            !std::isfinite(v) || v < 0) {
            std::fprintf(stderr, "bad --%s '%s' (a non-negative number)\n",
                         name.c_str(), text->c_str());
            std::exit(2);
        }
        return v;
    }

    /**
     * A count flag (every integer flag is one): a whole non-negative
     * decimal. Returns @p def when absent; exits 2, naming the flag, on
     * anything else, such as "-1", "0.5", "abc" or "10x".
     */
    std::int64_t
    getInt(const std::string &name, std::int64_t def) const
    {
        const std::optional<std::string> text = valueOf(name);
        if (!text)
            return def;
        std::int64_t v = 0;
        const char *end = text->data() + text->size();
        if (text->empty() ||
            text->find_first_not_of("0123456789") != std::string::npos ||
            std::from_chars(text->data(), end, v).ec != std::errc()) {
            std::fprintf(stderr,
                         "bad --%s '%s' (a whole non-negative number)\n",
                         name.c_str(), text->c_str());
            std::exit(2);
        }
        return v;
    }

    std::string
    getString(const std::string &name, const std::string &def) const
    {
        return valueOf(name).value_or(def);
    }

    bool
    has(const std::string &name) const
    {
        read_.insert(name);
        return std::find(args_.begin(), args_.end(), "--" + name) !=
               args_.end();
    }

    /**
     * A positive duration flag: "100ms", "250us", "2s", "500ns"; a bare
     * number means milliseconds (common::parseDuration). Returns @p def
     * when absent; exits 2, naming the flag, on an empty, malformed or
     * non-positive value.
     */
    common::Duration
    getDuration(const std::string &name, common::Duration def) const
    {
        const std::optional<std::string> text = valueOf(name);
        if (!text)
            return def;
        common::Duration d = 0;
        if (text->empty() || !common::parseDuration(*text, &d) || d <= 0) {
            std::fprintf(stderr,
                         "bad --%s '%s' (a positive duration: "
                         "ns/us/ms/s suffix, bare number = ms)\n",
                         name.c_str(), text->c_str());
            std::exit(2);
        }
        return d;
    }

    /**
     * Exits 2, naming it, on any argument that no get*() or has() call
     * has read. Call it after the last read and before the first cell
     * runs: read as absent, `--kyes=2000` would run the default keys.
     */
    void
    rejectUnknown() const
    {
        for (const auto &a : args_) {
            const std::string name =
                a.starts_with("--") ? a.substr(2, a.find('=') - 2) : "";
            if (!read_.contains(name)) {
                std::fprintf(stderr, "unknown argument %s\n", a.c_str());
                std::exit(2);
            }
        }
    }

  private:
    /**
     * The text after `--name=`, or nothing when the flag is absent.
     * Exits 2, naming the flag, when it is given bare: read as absent,
     * `--keys 2000` would run with the default key count.
     */
    std::optional<std::string>
    valueOf(const std::string &name) const
    {
        read_.insert(name);
        const std::string flag = "--" + name;
        for (const auto &a : args_) {
            if (a == flag) {
                std::fprintf(stderr, "%s needs a value: %s=VALUE\n",
                             flag.c_str(), flag.c_str());
                std::exit(2);
            }
            if (a.size() > flag.size() && a.rfind(flag, 0) == 0 &&
                a[flag.size()] == '=')
                return a.substr(flag.size() + 1);
        }
        return std::nullopt;
    }

    std::vector<std::string> args_;
    /** Every flag name asked for so far, for rejectUnknown(). */
    mutable std::set<std::string> read_;
};

/** Open @p path for writing. Exits on I/O error, so scripted
 *  pipelines fail loudly rather than read a stale file. */
inline std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

/**
 * The invariant checks sound for a cluster: snapshot reads unless the
 * backend is single-version (it returns versions newer than the
 * snapshot and relies on validation to abort), replication-before-ack
 * when shards have backups.
 */
inline common::InvariantMonitor::Config
monitorConfigFor(const workload::ClusterConfig &cfg)
{
    common::InvariantMonitor::Config mcfg;
    mcfg.checkSnapshotReads =
        cfg.backend != workload::BackendKind::SingleVersion;
    mcfg.checkReplicationBeforeAck = cfg.replicasPerShard > 1;
    return mcfg;
}

/**
 * The observers a run's flags ask for, on one cell:
 *
 *   --trace=PATH          milana-trace-v2 JSON event trace
 *   --perfetto=PATH       the same trace as Chrome/Perfetto JSON
 *   --monitor             online invariant checks over the trace;
 *                         violations fail the run
 *   --trace-capacity=N    trace ring size in events (default 262144)
 *   --metrics=PATH        milana-metrics-v1 JSON time series
 *   --metrics-interval=D  sampling window (default 100ms)
 */
class Observers
{
  public:
    /** Build what @p args asks for and point @p cfg's trace and
     *  metrics at it; the monitor's checks follow @p cfg. Reads every
     *  flag above, given or not. */
    Observers(const Args &args, workload::ClusterConfig &cfg)
        : tracePath_(args.getString("trace", "")),
          perfettoPath_(args.getString("perfetto", "")),
          metricsPath_(args.getString("metrics", ""))
    {
        const bool monitor_on = args.has("monitor");
        const auto capacity = static_cast<std::size_t>(
            args.getInt("trace-capacity", 262'144));
        const common::Duration interval = args.getDuration(
            "metrics-interval", 100 * common::kMillisecond);
        if (!tracePath_.empty() || !perfettoPath_.empty() || monitor_on)
            trace_ = std::make_unique<common::TraceLog>(capacity);
        if (monitor_on) {
            monitor_ = std::make_unique<common::InvariantMonitor>(
                monitorConfigFor(cfg), &std::cerr);
            monitor_->attach(*trace_);
        }
        if (!metricsPath_.empty())
            metrics_ = std::make_unique<common::MetricsRegistry>(interval);
        cfg.trace = trace_.get();
        cfg.metrics = metrics_.get();
    }

    /** Whether any observer flag was given. */
    bool any() const { return trace_ != nullptr || metrics_ != nullptr; }

    /**
     * After the run: write the trace, the Perfetto export and the
     * metrics, then print the monitor's report. Exits on I/O error.
     * @return false when the monitor saw a violation.
     */
    bool
    finish() const
    {
        if (!tracePath_.empty()) {
            std::ofstream os = openOutput(tracePath_);
            trace_->writeJson(os);
            std::printf("wrote %s (%zu events kept, %llu dropped)\n",
                        tracePath_.c_str(), trace_->size(),
                        static_cast<unsigned long long>(trace_->dropped()));
        }
        if (!perfettoPath_.empty()) {
            std::ofstream os = openOutput(perfettoPath_);
            trace_->writePerfetto(os, metrics_ != nullptr ? &metrics_->log()
                                                          : nullptr);
            std::printf("wrote %s (Perfetto trace-event JSON; open at "
                        "ui.perfetto.dev)\n",
                        perfettoPath_.c_str());
        }
        if (metrics_ != nullptr) {
            std::ofstream os = openOutput(metricsPath_);
            metrics_->log().writeJson(os);
            std::printf("wrote %s (%zu series)\n", metricsPath_.c_str(),
                        metrics_->log().seriesCount());
        }
        if (monitor_ == nullptr)
            return true;
        monitor_->report(std::cout);
        return monitor_->ok();
    }

  private:
    std::string tracePath_;
    std::string perfettoPath_;
    std::string metricsPath_;
    std::unique_ptr<common::TraceLog> trace_;
    std::unique_ptr<common::InvariantMonitor> monitor_;
    std::unique_ptr<common::MetricsRegistry> metrics_;
};

inline void
printHeader(const char *title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

/**
 * An ordered list of key/value pairs serialized as one JSON object —
 * the building block of a Report's "params" object and "rows" entries.
 * Insertion order is preserved so rows read like the printed tables.
 */
class KvList
{
  public:
    using Value = std::variant<bool, std::int64_t, double, std::string>;

    template <typename T>
    KvList &
    set(const std::string &key, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            items_.emplace_back(key, Value(v));
        else if constexpr (std::is_integral_v<T>)
            items_.emplace_back(key,
                                Value(static_cast<std::int64_t>(v)));
        else if constexpr (std::is_floating_point_v<T>)
            items_.emplace_back(key, Value(static_cast<double>(v)));
        else
            items_.emplace_back(key, Value(std::string(v)));
        return *this;
    }

    void
    writeTo(common::JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &[key, value] : items_) {
            w.key(key);
            if (std::holds_alternative<bool>(value))
                w.value(std::get<bool>(value));
            else if (std::holds_alternative<std::int64_t>(value))
                w.value(std::get<std::int64_t>(value));
            else if (std::holds_alternative<double>(value))
                w.value(std::get<double>(value));
            else
                w.value(std::get<std::string>(value));
        }
        w.endObject();
    }

  private:
    std::vector<std::pair<std::string, Value>> items_;
};

/**
 * Machine-readable run report, schema "milana-bench-v1":
 *
 *   {
 *     "schema": "milana-bench-v1",
 *     "bench":  "<harness name>",
 *     "params": { flag: value, ... },
 *     "rows":   [ { cell coordinates and measurements }, ... ],
 *     "stats":  { "<section>": {"counters": ..., "histograms": ...} }
 *   }
 *
 * Each printed table cell becomes one row object; "stats" carries the
 * optional full StatSet dumps (e.g. the traced cell of fig6). Finish
 * with write(): a no-op unless the harness passed a non-empty path
 * (its --json=PATH).
 */
class Report
{
  public:
    explicit Report(std::string bench, std::string path = "")
        : bench_(std::move(bench)), path_(std::move(path)) {}

    KvList &params() { return params_; }

    /** Append a row. The reference is valid until the next addRow(). */
    KvList &
    addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /** Attach a full StatSet dump under stats.<section>, with every
     *  metric name prefixed by @p prefix (e.g. "client."). */
    void
    addStats(const std::string &section, const common::StatSet &stats,
             const std::string &prefix = "")
    {
        stats_.emplace_back(section, std::make_pair(prefix, stats));
    }

    void
    writeTo(std::ostream &os) const
    {
        common::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("milana-bench-v1");
        w.key("bench").value(bench_);
        w.key("params");
        params_.writeTo(w);
        w.key("rows").beginArray();
        for (const auto &row : rows_)
            row.writeTo(w);
        w.endArray();
        if (!stats_.empty()) {
            w.key("stats").beginObject();
            for (const auto &[section, entry] : stats_) {
                w.key(section);
                entry.second.toJson(w, entry.first);
            }
            w.endObject();
        }
        w.endObject();
        os << "\n";
    }

    /** Write the report to its path if it has one; exits on I/O error
     *  so scripted pipelines fail loudly rather than read a stale
     *  file. */
    void
    write() const
    {
        if (path_.empty())
            return;
        std::ofstream os = openOutput(path_);
        writeTo(os);
        std::printf("\nwrote %s\n", path_.c_str());
    }

  private:
    std::string bench_;
    std::string path_;
    KvList params_;
    std::vector<KvList> rows_;
    std::vector<std::pair<std::string, std::pair<std::string, common::StatSet>>>
        stats_;
};

} // namespace bench

#endif // BENCH_BENCH_UTIL_HH
