/**
 * @file
 * Shared helpers for the experiment harnesses: a tiny flag parser
 * (--name=value), table printing, and the machine-readable report
 * writer behind every harness's --json flag. Every bench accepts:
 *
 *   --seconds=N   simulated measurement seconds per cell
 *   --warmup=N    simulated warm-up seconds (excluded from stats)
 *   --keys=N      key-space size
 *   --seed=N      root RNG seed
 *   --full        paper-scale parameters (slower)
 *   --json=PATH   write a milana-bench-v1 JSON report to PATH
 *
 * Defaults are sized so the whole bench suite finishes in minutes of
 * wall time while preserving the paper's shapes; EXPERIMENTS.md records
 * the settings used for the committed results.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace bench {

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            args_.emplace_back(argv[i]);
    }

    double
    getDouble(const std::string &name, double def) const
    {
        const std::string prefix = "--" + name + "=";
        for (const auto &a : args_) {
            if (a.rfind(prefix, 0) == 0)
                return std::atof(a.c_str() + prefix.size());
        }
        return def;
    }

    std::int64_t
    getInt(const std::string &name, std::int64_t def) const
    {
        const std::string prefix = "--" + name + "=";
        for (const auto &a : args_) {
            if (a.rfind(prefix, 0) == 0)
                return std::atoll(a.c_str() + prefix.size());
        }
        return def;
    }

    std::string
    getString(const std::string &name, const std::string &def) const
    {
        const std::string prefix = "--" + name + "=";
        const std::string flag = "--" + name;
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i].rfind(prefix, 0) == 0)
                return args_[i].substr(prefix.size());
            // Also accept the two-token form "--name value".
            if (args_[i] == flag && i + 1 < args_.size())
                return args_[i + 1];
        }
        return def;
    }

    bool
    has(const std::string &name) const
    {
        const std::string flag = "--" + name;
        for (const auto &a : args_) {
            if (a == flag)
                return true;
        }
        return false;
    }

    /**
     * A positive duration flag: "100ms", "250us", "2s", "500ns"; a bare
     * number means milliseconds (common::parseDuration). Returns @p def
     * when absent; exits 2, naming the flag, on a malformed or
     * non-positive value.
     */
    common::Duration
    getDuration(const std::string &name, common::Duration def) const
    {
        const std::string text = getString(name, "");
        if (text.empty())
            return def;
        common::Duration d = 0;
        if (!common::parseDuration(text, &d) || d <= 0) {
            std::fprintf(stderr,
                         "bad --%s '%s' (a positive duration: "
                         "ns/us/ms/s suffix, bare number = ms)\n",
                         name.c_str(), text.c_str());
            std::exit(2);
        }
        return d;
    }

  private:
    std::vector<std::string> args_;
};

/**
 * Write a TimeSeriesLog as the `milana-metrics-v1` JSON document at
 * @p path plus a sibling CSV of its deterministic series (PATH with
 * a .json suffix swapped for .csv, else PATH + ".csv"). Exits on I/O
 * error, like Report::write.
 */
inline void
writeMetricsOutputs(const common::TimeSeriesLog &log,
                    const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    log.writeJson(os);
    std::string csv_path = path;
    if (csv_path.size() >= 5 &&
        csv_path.compare(csv_path.size() - 5, 5, ".json") == 0)
        csv_path.resize(csv_path.size() - 5);
    csv_path += ".csv";
    std::ofstream cs(csv_path);
    if (!cs) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     csv_path.c_str());
        std::exit(1);
    }
    log.writeCsv(cs);
    std::printf("wrote %s and %s (%zu series)\n", path.c_str(),
                csv_path.c_str(), log.seriesCount());
}

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
 * with write(args): a no-op unless the user passed --json=PATH.
 */
class Report
{
  public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

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

    /** Write the report to --json=PATH if given; exits on I/O error so
     *  scripted pipelines fail loudly rather than read a stale file. */
    void
    write(const Args &args) const
    {
        const std::string path = args.getString("json", "");
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            std::exit(1);
        }
        writeTo(os);
        std::printf("\nwrote %s\n", path.c_str());
    }

  private:
    std::string bench_;
    KvList params_;
    std::vector<KvList> rows_;
    std::vector<std::pair<std::string, std::pair<std::string, common::StatSet>>>
        stats_;
};

} // namespace bench

#endif // BENCH_BENCH_UTIL_HH
