/**
 * @file
 * trace-report — offline analysis of a milana-trace event log (the
 * --trace output of fig6_abort_vs_clients, milana-sim, or any harness
 * wired through ClusterConfig::trace). Reads milana-trace-v2 documents
 * (JSON or CSV, chosen by file extension).
 *
 * Default report:
 *
 *  - window coverage, with a prominent WARNING when the ring evicted
 *    events (the trace is a bounded recent window, so absolute counts
 *    cover the window, not the run; compare proportions);
 *  - per-layer and per-span-name latency tables (layer = first
 *    dot-separated segment of the event name);
 *  - transaction outcome/abort-reason split from `milana.txn.commit`
 *    end tags — same vocabulary as the client txn.abort.<reason>
 *    counters, so the split can be checked against --json stats;
 *  - the slowest traced transactions (their trace ids feed --txn=);
 *  - observed local-vs-true clock error.
 *
 * Options:
 *   --strict     exit 3 if the window is incomplete (dropped > 0)
 *   --txn=<id>   per-transaction timeline + critical-path breakdown
 *
 * See OBSERVABILITY.md for worked examples.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"
#include "common/trace.hh"

using common::TraceEvent;
using common::TraceKind;

namespace {

bool
loadCsv(std::istream &is, common::ParsedTrace &trace, std::string &error)
{
    std::string line;
    if (!std::getline(is, line) ||
        line != "seq,true_ns,local_ns,node,kind,span,trace,parent,name,"
                "tag,arg,arg2") {
        error = "missing milana-trace-v2 CSV header";
        return false;
    }
    const std::size_t expect = 12;
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::vector<std::string> fields;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= line.size(); ++i) {
            if (i == line.size() || line[i] == ',') {
                fields.push_back(line.substr(start, i - start));
                start = i + 1;
            }
        }
        if (fields.size() != expect) {
            error = "line " + std::to_string(lineno) + ": expected " +
                    std::to_string(expect) + " fields, got " +
                    std::to_string(fields.size());
            return false;
        }
        TraceEvent ev;
        std::size_t f = 0;
        ev.seq = std::strtoull(fields[f++].c_str(), nullptr, 10);
        ev.trueTime = std::strtoll(fields[f++].c_str(), nullptr, 10);
        ev.localTime = std::strtoll(fields[f++].c_str(), nullptr, 10);
        ev.node = static_cast<std::uint32_t>(
            std::strtoul(fields[f++].c_str(), nullptr, 10));
        const std::string &kind = fields[f++];
        ev.kind = kind == "B"   ? TraceKind::SpanBegin
                  : kind == "E" ? TraceKind::SpanEnd
                                : TraceKind::Instant;
        ev.span = std::strtoull(fields[f++].c_str(), nullptr, 10);
        ev.traceId = std::strtoull(fields[f++].c_str(), nullptr, 10);
        ev.parentSpan = std::strtoull(fields[f++].c_str(), nullptr, 10);
        ev.name = fields[f++];
        ev.tag = fields[f++];
        ev.arg = std::strtoll(fields[f++].c_str(), nullptr, 10);
        ev.arg2 = std::strtoll(fields[f++].c_str(), nullptr, 10);
        trace.events.push_back(std::move(ev));
    }
    // CSV carries no recorded/dropped header counters, but seq is the
    // global append order: everything before the oldest surviving
    // event was evicted.
    std::uint64_t minSeq = ~0ULL, maxSeq = 0;
    for (const TraceEvent &e : trace.events) {
        minSeq = std::min(minSeq, e.seq);
        maxSeq = std::max(maxSeq, e.seq);
    }
    trace.recorded = trace.events.empty() ? 0 : maxSeq + 1;
    trace.dropped = trace.events.empty() ? 0 : minSeq;
    return true;
}

std::string
layerOf(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

double
us(double ns)
{
    return ns / 1000.0;
}

void
printLatencyRow(const std::string &label, const common::Histogram &h)
{
    std::printf("%-28s %9llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                label.c_str(),
                static_cast<unsigned long long>(h.count()),
                us(h.mean()), us(static_cast<double>(h.p50())),
                us(static_cast<double>(h.p95())),
                us(static_cast<double>(h.p99())),
                us(static_cast<double>(h.max())));
}

/** Critical-path attribution bucket for a span name. */
const char *
categoryOf(const std::string &name)
{
    if (name == "net.rpc")
        return "network";
    if (name == "milana.repl.txn_record" || name == "semel.repl.write")
        return "replication";
    if (name == "milana.server.prepare")
        return "validation";
    if (name == "milana.server.get")
        return "server read";
    if (name == "milana.server.decision")
        return "commit apply";
    if (name.rfind("semel.server.", 0) == 0)
        return "server write";
    if (name.rfind("flash.", 0) == 0)
        return "device";
    if (name.rfind("milana.txn.", 0) == 0 ||
        name.rfind("semel.client.", 0) == 0)
        return "client";
    return "other";
}

/** One reconstructed span of a single transaction. */
struct TxnSpan
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::string tag; ///< from the end event (outcome)
    std::int64_t begin = -1;
    std::int64_t end = -1;

    bool complete() const { return begin >= 0 && end >= 0; }
    std::int64_t duration() const { return end - begin; }
};

/**
 * Per-transaction view: the txn's timeline plus a critical-path
 * breakdown of where its wall-clock went. Self-time attribution: each
 * completed span's duration minus the durations of its completed
 * children, bucketed by categoryOf(); SSD pre-admission queueing
 * (flash.ssd.admit arg2) is split out of "device" into "queueing".
 */
int
reportTxn(const common::ParsedTrace &trace, std::uint64_t txnId)
{
    std::vector<const TraceEvent *> events;
    for (const TraceEvent &e : trace.events)
        if (e.traceId == txnId)
            events.push_back(&e);
    if (events.empty()) {
        std::fprintf(stderr,
                     "error: no events with trace id %llu\n",
                     static_cast<unsigned long long>(txnId));
        return 1;
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent *a, const TraceEvent *b) {
                  if (a->trueTime != b->trueTime)
                      return a->trueTime < b->trueTime;
                  return a->seq < b->seq;
              });

    std::unordered_map<std::uint64_t, TxnSpan> spans;
    std::int64_t queueing = 0; // flash.ssd.admit arg2 sum
    for (const TraceEvent *e : events) {
        if (e->kind == TraceKind::SpanBegin) {
            TxnSpan &s = spans[e->span];
            s.id = e->span;
            s.parent = e->parentSpan;
            s.name = e->name;
            s.begin = e->trueTime;
        } else if (e->kind == TraceKind::SpanEnd) {
            TxnSpan &s = spans[e->span];
            s.id = e->span;
            if (s.begin < 0) { // begin evicted; keep what we know
                s.parent = e->parentSpan;
                s.name = e->name;
            }
            s.tag = e->tag;
            s.end = e->trueTime;
        } else if (e->name == "flash.ssd.admit") {
            queueing += e->arg2;
        }
    }

    // Nesting depth via the parent chain (for timeline indentation).
    std::unordered_map<std::uint64_t, int> depth;
    std::function<int(std::uint64_t)> depthOf =
        [&](std::uint64_t id) -> int {
        if (id == 0)
            return 0;
        auto d = depth.find(id);
        if (d != depth.end())
            return d->second;
        depth[id] = 0; // break cycles defensively
        const auto s = spans.find(id);
        const int v =
            s == spans.end() ? 0 : 1 + depthOf(s->second.parent);
        depth[id] = v;
        return v;
    };

    std::printf("--- transaction %llu: timeline (%zu events) ---\n",
                static_cast<unsigned long long>(txnId), events.size());
    const std::int64_t t0 = events.front()->trueTime;
    constexpr std::size_t kMaxLines = 400;
    std::size_t printed = 0;
    for (const TraceEvent *e : events) {
        if (++printed > kMaxLines) {
            std::printf("  ... %zu more events (timeline capped)\n",
                        events.size() - kMaxLines);
            break;
        }
        const int ind =
            2 * depthOf(e->kind == TraceKind::Instant ? e->parentSpan
                                                      : e->span);
        std::printf("  %+11.1f us  node %-4u %*s", us(static_cast<double>(e->trueTime - t0)),
                    e->node, ind, "");
        switch (e->kind) {
          case TraceKind::SpanBegin: {
            std::printf("%s", e->name.c_str());
            const auto s = spans.find(e->span);
            if (s != spans.end() && s->second.complete())
                std::printf("  [%.1f us]",
                            us(static_cast<double>(s->second.duration())));
            break;
          }
          case TraceKind::SpanEnd:
            std::printf("end %s", e->name.c_str());
            break;
          case TraceKind::Instant:
            std::printf("* %s", e->name.c_str());
            break;
        }
        if (!e->tag.empty())
            std::printf("  tag=%s", e->tag.c_str());
        if (e->arg != 0)
            std::printf("  arg=%lld", static_cast<long long>(e->arg));
        if (e->arg2 != 0)
            std::printf("  arg2=%lld", static_cast<long long>(e->arg2));
        std::printf("\n");
    }

    // Root: the commit span if present, else the longest complete span.
    const TxnSpan *root = nullptr;
    for (const auto &[id, s] : spans) {
        if (!s.complete())
            continue;
        if (s.name == "milana.txn.commit") {
            root = &s;
            break;
        }
        if (root == nullptr || s.duration() > root->duration())
            root = &s;
    }
    if (root == nullptr) {
        std::printf("\n(no complete span — cannot compute a "
                    "critical-path breakdown)\n");
        return 0;
    }

    std::unordered_map<std::uint64_t, std::int64_t> childTime;
    for (const auto &[id, s] : spans)
        if (s.complete() && s.parent != 0)
            childTime[s.parent] += s.duration();

    std::map<std::string, std::int64_t> byCategory;
    for (const auto &[id, s] : spans) {
        if (!s.complete())
            continue;
        std::int64_t self = s.duration() - childTime[id];
        if (self < 0)
            self = 0; // children overlapped the parent's tail
        byCategory[categoryOf(s.name)] += self;
    }
    if (queueing > 0) {
        // Pre-admission queueing was counted inside the SSD spans'
        // self-time; reattribute it.
        auto &device = byCategory["device"];
        const std::int64_t moved = std::min(device, queueing);
        device -= moved;
        byCategory["queueing"] += moved;
    }

    // Denominator: the transaction's full extent — its begin instant
    // (when present) through the root span's end — so read phases
    // before the commit span count sensibly.
    std::int64_t extentBegin = root->begin;
    for (const TraceEvent *e : events) {
        if (e->kind == TraceKind::Instant &&
            e->name == "milana.txn.begin") {
            extentBegin = e->trueTime;
            break;
        }
    }
    const std::int64_t extent =
        std::max<std::int64_t>(1, root->end - extentBegin);

    std::printf("\n--- critical-path breakdown (%s, txn extent %.1f us",
                root->name.c_str(), us(static_cast<double>(extent)));
    if (!root->tag.empty())
        std::printf(", outcome %s", root->tag.c_str());
    std::printf(") ---\n");
    std::vector<std::pair<std::string, std::int64_t>> rows(
        byCategory.begin(), byCategory.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    double totalPct = 0;
    for (const auto &[cat, ns] : rows) {
        if (ns == 0)
            continue;
        const double pct = 100.0 * static_cast<double>(ns) /
                           static_cast<double>(extent);
        totalPct += pct;
        std::printf("%-16s %11.1f us  %6.1f%%\n", cat.c_str(),
                    us(static_cast<double>(ns)), pct);
    }
    if (totalPct > 100.5)
        std::printf("(shares sum to %.0f%% of the txn extent: "
                    "sub-operations overlap, and post-ack work — e.g. "
                    "the async decision fan-out — runs past the "
                    "client-visible end)\n",
                    totalPct);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string csvPath;
    bool strict = false;
    bool haveTxn = false;
    std::uint64_t txnId = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            path.clear();
            break;
        }
        if (arg == "--strict") {
            strict = true;
        } else if (arg.rfind("--csv=", 0) == 0) {
            csvPath = arg.substr(6);
        } else if (arg.rfind("--txn=", 0) == 0) {
            haveTxn = true;
            txnId = std::strtoull(arg.c_str() + 6, nullptr, 10);
        } else if (!arg.empty() && arg[0] == '-') {
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
            "usage: trace-report [--strict] [--txn=<id>] "
            "[--csv=PATH] <trace.json | trace.csv>\n"
            "analyzes a milana-trace-v2 event log; see "
            "OBSERVABILITY.md\n"
            "  --strict   exit 3 when the ring evicted events\n"
            "  --txn=<id> per-transaction timeline and critical-path "
            "breakdown\n"
            "  --csv=PATH also write the latency tables as CSV "
            "(scope,name,count,mean_us,p50_us,p95_us,p99_us,max_us)\n");
        return 2;
    }

    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        return 1;
    }

    common::ParsedTrace trace;
    std::string error;
    const bool is_csv =
        path.size() >= 4 &&
        path.compare(path.size() - 4, 4, ".csv") == 0;
    if (is_csv) {
        if (!loadCsv(is, trace, error)) {
            std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                         error.c_str());
            return 1;
        }
    } else {
        std::stringstream buffer;
        buffer << is.rdbuf();
        if (!common::parseTraceJson(buffer.str(), trace, error)) {
            std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                         error.c_str());
            return 1;
        }
    }

    if (trace.events.empty()) {
        std::printf("%s: empty trace\n", path.c_str());
        return 0;
    }
    // Deterministic order regardless of producer: (trueTime, seq).
    std::sort(trace.events.begin(), trace.events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.trueTime != b.trueTime)
                      return a.trueTime < b.trueTime;
                  return a.seq < b.seq;
              });

    if (haveTxn)
        return reportTxn(trace, txnId);

    std::int64_t t_min = trace.events.front().trueTime;
    std::int64_t t_max = trace.events.back().trueTime;

    std::printf("%s: %zu events\n", path.c_str(), trace.events.size());
    if (trace.dropped != 0) {
        std::printf("WARNING: incomplete window — the ring evicted "
                    "%llu of %llu recorded events (%.1f%%).\n"
                    "         Absolute counts below cover only the "
                    "retained window; compare proportions, or rerun "
                    "with a larger --trace-capacity.\n",
                    static_cast<unsigned long long>(trace.dropped),
                    static_cast<unsigned long long>(trace.recorded),
                    100.0 * static_cast<double>(trace.dropped) /
                        static_cast<double>(trace.recorded));
    }
    std::printf("covers %.3f ms of simulated time (t=%.3f..%.3f s)\n",
                static_cast<double>(t_max - t_min) / 1e6,
                static_cast<double>(t_min) / 1e9,
                static_cast<double>(t_max) / 1e9);

    // Pair spans; unmatched ends (begin evicted from the ring) and
    // unmatched begins (still open at snapshot) are counted, not fatal.
    std::map<std::uint64_t, const TraceEvent *> open;
    std::map<std::string, common::Histogram> byName;
    std::map<std::string, common::Histogram> byLayer;
    std::map<std::string, std::uint64_t> instants;
    std::map<std::string, std::uint64_t> commitTags;
    /** (duration, traceId, outcome) of traced commit spans. */
    std::vector<std::tuple<std::int64_t, std::uint64_t, std::string>>
        slowest;
    common::Histogram clockError;
    std::uint64_t spans = 0, orphanEnds = 0;

    for (const TraceEvent &e : trace.events) {
        if (e.localTime != e.trueTime)
            clockError.record(std::abs(e.localTime - e.trueTime));
        switch (e.kind) {
          case TraceKind::Instant:
            ++instants[e.name];
            break;
          case TraceKind::SpanBegin:
            open[e.span] = &e;
            break;
          case TraceKind::SpanEnd: {
            const auto it = open.find(e.span);
            if (it == open.end()) {
                ++orphanEnds;
                break;
            }
            const std::int64_t duration =
                e.trueTime - it->second->trueTime;
            open.erase(it);
            ++spans;
            byName[e.name].record(duration);
            byLayer[layerOf(e.name)].record(duration);
            if (e.name == "milana.txn.commit") {
                ++commitTags[e.tag.empty() ? "?" : e.tag];
                if (e.traceId != 0)
                    slowest.emplace_back(duration, e.traceId,
                                         e.tag.empty() ? "?" : e.tag);
            }
            break;
          }
        }
    }

    std::printf("\nspans: %llu paired, %llu still open, %llu ends "
                "missing their begin (evicted)\n",
                static_cast<unsigned long long>(spans),
                static_cast<unsigned long long>(open.size()),
                static_cast<unsigned long long>(orphanEnds));

    std::printf("\n--- per-layer span latency (us) ---\n");
    std::printf("%-28s %9s %9s %9s %9s %9s %9s\n", "layer", "count",
                "mean", "p50", "p95", "p99", "max");
    for (const auto &[layer, hist] : byLayer)
        printLatencyRow(layer, hist);

    std::printf("\n--- per-span latency (us) ---\n");
    std::printf("%-28s %9s %9s %9s %9s %9s %9s\n", "span", "count",
                "mean", "p50", "p95", "p99", "max");
    for (const auto &[name, hist] : byName)
        printLatencyRow(name, hist);

    if (!csvPath.empty()) {
        std::ofstream cs(csvPath);
        if (!cs) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         csvPath.c_str());
            return 1;
        }
        cs << "scope,name,count,mean_us,p50_us,p95_us,p99_us,max_us\n";
        const auto emit = [&cs](const char *scope,
                                const std::string &name,
                                const common::Histogram &h) {
            char line[256];
            std::snprintf(line, sizeof(line),
                          "%s,%s,%llu,%.3f,%.3f,%.3f,%.3f,%.3f\n",
                          scope, name.c_str(),
                          static_cast<unsigned long long>(h.count()),
                          us(h.mean()),
                          us(static_cast<double>(h.p50())),
                          us(static_cast<double>(h.p95())),
                          us(static_cast<double>(h.p99())),
                          us(static_cast<double>(h.max())));
            cs << line;
        };
        for (const auto &[layer, hist] : byLayer)
            emit("layer", layer, hist);
        for (const auto &[name, hist] : byName)
            emit("span", name, hist);
        std::printf("\nwrote %s (%zu layer rows, %zu span rows)\n",
                    csvPath.c_str(), byLayer.size(), byName.size());
    }

    if (!instants.empty()) {
        std::printf("\n--- instant events ---\n");
        for (const auto &[name, count] : instants)
            std::printf("%-28s %9llu\n", name.c_str(),
                        static_cast<unsigned long long>(count));
    }

    if (!commitTags.empty()) {
        std::uint64_t total = 0, aborted = 0;
        for (const auto &[tag, count] : commitTags) {
            total += count;
            if (tag != "committed" && tag != "failed")
                aborted += count;
        }
        std::printf("\n--- transaction outcomes (milana.txn.commit "
                    "spans) ---\n");
        for (const auto &[tag, count] : commitTags)
            std::printf("%-28s %9llu  (%5.2f%% of commits)\n",
                        tag.c_str(),
                        static_cast<unsigned long long>(count),
                        100.0 * static_cast<double>(count) /
                            static_cast<double>(total));
        if (aborted != 0) {
            std::printf("abort-reason split (%% of aborts):\n");
            for (const auto &[tag, count] : commitTags) {
                if (tag == "committed" || tag == "failed")
                    continue;
                std::printf("  %-26s %9llu  (%5.2f%%)\n", tag.c_str(),
                            static_cast<unsigned long long>(count),
                            100.0 * static_cast<double>(count) /
                                static_cast<double>(aborted));
            }
        }
    }

    if (!slowest.empty()) {
        std::sort(slowest.begin(), slowest.end(),
                  [](const auto &a, const auto &b) {
                      return std::get<0>(a) > std::get<0>(b);
                  });
        std::printf("\n--- slowest traced transactions (drill in with "
                    "--txn=<id>) ---\n");
        std::printf("%-12s %12s  %s\n", "trace id", "duration", "outcome");
        const std::size_t top = std::min<std::size_t>(slowest.size(), 10);
        for (std::size_t i = 0; i < top; ++i)
            std::printf("%-12llu %10.1f us  %s\n",
                        static_cast<unsigned long long>(
                            std::get<1>(slowest[i])),
                        us(static_cast<double>(std::get<0>(slowest[i]))),
                        std::get<2>(slowest[i]).c_str());
    }

    if (clockError.count() != 0) {
        std::printf("\n--- observed |LocalTime - TrueTime| (us) ---\n");
        std::printf("%-28s %9llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                    "clock error",
                    static_cast<unsigned long long>(clockError.count()),
                    us(clockError.mean()),
                    us(static_cast<double>(clockError.p50())),
                    us(static_cast<double>(clockError.p95())),
                    us(static_cast<double>(clockError.p99())),
                    us(static_cast<double>(clockError.max())));
    } else {
        std::printf("\nall events stamped with LocalTime == TrueTime "
                    "(perfect clocks)\n");
    }

    if (strict && trace.dropped != 0) {
        std::fprintf(stderr,
                     "strict: trace window incomplete (%llu events "
                     "evicted)\n",
                     static_cast<unsigned long long>(trace.dropped));
        return 3;
    }
    return 0;
}
