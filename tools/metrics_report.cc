/**
 * @file
 * Offline analyzer for `milana-metrics-v1` time-series dumps
 * (--metrics=PATH on the benches and tools/milana-sim).
 *
 *   metrics-report <metrics.json>
 *
 * Prints a windowed timeline correlating the transaction abort rate
 * (from the client.txn.committed / client.txn.aborted counter deltas,
 * summed across client nodes) with the instantaneous clock skew (the
 * clocksync.max_pairwise_skew_ns gauge; 0 on perfect clocks), then the
 * Pearson correlation between the two. Exit codes: 0 ok, 1 I/O or parse
 * error, 2 usage.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace {

/** One parsed point of one series. */
struct Point
{
    std::int64_t windowStart = 0;
    std::int64_t windowEnd = 0;
    double value = 0.0; ///< counter delta or gauge value
    std::uint64_t count = 0;
    std::int64_t p50 = 0, p99 = 0, p999 = 0;
};

struct Series
{
    std::string name;
    std::uint32_t node = 0;
    std::string kind; ///< "counter" | "gauge" | "hist"
    std::vector<Point> points;
};

bool
loadSeries(const common::JsonValue &arr, std::vector<Series> &out,
           std::string &error)
{
    if (!arr.isArray()) {
        error = "\"series\" is not an array";
        return false;
    }
    for (std::size_t i = 0; i < arr.size(); ++i) {
        const common::JsonValue &s = arr[i];
        Series series;
        series.name = s.at("name").asString();
        series.node = static_cast<std::uint32_t>(s.at("node").asInt());
        series.kind = s.at("kind").asString();
        const common::JsonValue &pts = s.at("points");
        if (series.name.empty() || !pts.isArray()) {
            error = "malformed series entry #" + std::to_string(i);
            return false;
        }
        for (std::size_t j = 0; j < pts.size(); ++j) {
            const common::JsonValue &p = pts[j];
            Point point;
            point.windowStart = p.at("w").asInt();
            point.windowEnd = p.at("we").asInt();
            if (series.kind == "counter")
                point.value = static_cast<double>(p.at("d").asInt());
            else if (series.kind == "gauge")
                point.value = p.at("v").asDouble();
            else {
                point.count =
                    static_cast<std::uint64_t>(p.at("n").asInt());
                point.p50 = p.at("p50").asInt();
                point.p99 = p.at("p99").asInt();
                point.p999 = p.at("p999").asInt();
            }
            series.points.push_back(point);
        }
        out.push_back(std::move(series));
    }
    return true;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** A proportional bar, e.g. "#####     " scaled to @p maxValue. */
std::string
bar(double value, double maxValue, int width)
{
    if (maxValue <= 0.0)
        return std::string(width, ' ');
    int n = static_cast<int>(std::lround(
        value / maxValue * static_cast<double>(width)));
    n = std::clamp(n, value > 0.0 ? 1 : 0, width);
    return std::string(static_cast<std::size_t>(n), '#') +
           std::string(static_cast<std::size_t>(width - n), ' ');
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            path.clear();
            break;
        }
    }
    if (path.empty()) {
        std::fprintf(
            stderr,
            "usage: metrics-report <metrics.json>\n"
            "analyzes a milana-metrics-v1 time-series dump; see "
            "OBSERVABILITY.md\n");
        return 2;
    }

    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        return 1;
    }
    std::stringstream buffer;
    buffer << is.rdbuf();
    std::string error;
    const common::JsonValue doc =
        common::JsonValue::parse(buffer.str(), &error);
    if (doc.isNull() && !error.empty()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    if (doc.at("schema").asString() != "milana-metrics-v1") {
        std::fprintf(stderr,
                     "error: %s: not a milana-metrics-v1 document\n",
                     path.c_str());
        return 1;
    }

    std::vector<Series> series;
    if (!loadSeries(doc.at("series"), series, error)) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }

    const std::int64_t interval = doc.at("interval_ns").asInt();
    std::size_t totalPoints = 0;
    for (const Series &s : series)
        totalPoints += s.points.size();
    std::printf("%s: %zu series, %zu points, interval %.0f ms\n",
                path.c_str(), series.size(), totalPoints,
                static_cast<double>(interval) / 1e6);

    // ---- per-window abort-rate vs skew timeline --------------------
    struct Window
    {
        std::int64_t end = 0;
        double committed = 0.0, aborted = 0.0;
        double maxSkew = 0.0;
    };
    std::map<std::int64_t, Window> windows; // keyed by windowStart

    for (const Series &s : series) {
        for (const Point &p : s.points) {
            Window &w = windows[p.windowStart];
            w.end = std::max(w.end, p.windowEnd);
            if (s.name == "client.txn.committed")
                w.committed += p.value;
            else if (s.name == "client.txn.aborted")
                w.aborted += p.value;
            else if (s.name == "clocksync.max_pairwise_skew_ns")
                w.maxSkew = std::max(w.maxSkew, p.value);
        }
    }

    double maxAbortPct = 0.0, maxSkewUs = 0.0;
    std::vector<std::pair<double, double>> samples; // (abort%, skew us)
    for (const auto &[start, w] : windows) {
        (void)start;
        const double total = w.committed + w.aborted;
        const double abortPct =
            total > 0.0 ? 100.0 * w.aborted / total : 0.0;
        const double skewUs = w.maxSkew / 1e3;
        if (total > 0.0)
            samples.emplace_back(abortPct, skewUs);
        maxAbortPct = std::max(maxAbortPct, abortPct);
        maxSkewUs = std::max(maxSkewUs, skewUs);
    }

    std::printf("\n--- abort rate vs clock skew, per %.0f ms window "
                "---\n",
                static_cast<double>(interval) / 1e6);
    std::printf("%10s %10s %10s %8s %-14s %10s\n", "t_start(s)",
                "commits/s", "aborts/s", "abort%", "", "skew(us)");
    for (const auto &[start, w] : windows) {
        const double width = seconds(w.end - start);
        if (width <= 0.0)
            continue;
        const double total = w.committed + w.aborted;
        const double abortPct =
            total > 0.0 ? 100.0 * w.aborted / total : 0.0;
        std::printf("%10.3f %10.0f %10.0f %7.2f%% %-14s %10.1f\n",
                    seconds(start), w.committed / width,
                    w.aborted / width, abortPct,
                    bar(abortPct, maxAbortPct, 14).c_str(),
                    w.maxSkew / 1e3);
    }

    // Pearson correlation of abort% against max skew across windows.
    if (samples.size() >= 2) {
        double meanA = 0.0, meanS = 0.0;
        for (const auto &[a, s] : samples) {
            meanA += a;
            meanS += s;
        }
        meanA /= static_cast<double>(samples.size());
        meanS /= static_cast<double>(samples.size());
        double cov = 0.0, varA = 0.0, varS = 0.0;
        for (const auto &[a, s] : samples) {
            cov += (a - meanA) * (s - meanS);
            varA += (a - meanA) * (a - meanA);
            varS += (s - meanS) * (s - meanS);
        }
        if (varA > 0.0 && varS > 0.0)
            std::printf("\nPearson(abort%%, skew) = %+.3f over %zu "
                        "windows\n",
                        cov / std::sqrt(varA * varS), samples.size());
        else
            std::printf("\nPearson(abort%%, skew) = n/a (%s variance "
                        "is zero over %zu windows)\n",
                        varA > 0.0 ? "skew" : "abort-rate",
                        samples.size());
    }
    return 0;
}
