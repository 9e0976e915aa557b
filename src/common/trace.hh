/**
 * @file
 * Simulated-time tracing: typed span/event records stamped with BOTH
 * the simulator's TrueTime and the emitting node's (possibly skewed)
 * LocalTime, so a report can attribute latency and aborts to clock
 * skew vs. device queueing vs. validation after the fact.
 *
 * Four pieces:
 *
 *  - TraceContext: the ambient causal context — which transaction
 *    (trace id) the current execution path belongs to and the
 *    innermost open span. The simulator is single-threaded, so the
 *    context is a plain global saved/restored around events, coroutine
 *    resumptions, and network deliveries (see sim/simulator.cc,
 *    sim/task.hh, sim/future.hh, sim/sync.hh, net/network.hh).
 *  - TraceLog: a bounded ring buffer of TraceEvent records owned by
 *    the harness. When full, the oldest events are overwritten and
 *    counted in dropped(); a trace is a *recent window*, never an
 *    unbounded allocation. An optional observer sees every append
 *    (before any eviction) — the hook the InvariantMonitor uses.
 *  - Tracer: a cheap per-component handle (node id + clock accessors
 *    + TraceLog pointer). A default-constructed Tracer is disabled and
 *    every emit is a no-op, so instrumentation costs one branch when
 *    tracing is off. Every emitted event is stamped with the current
 *    TraceContext (traceId + parent span).
 *  - ScopedSpan: RAII begin/end pair; the tag set before destruction
 *    rides on the end event (e.g. an abort reason discovered
 *    mid-span). Construction pushes the span onto the current context
 *    (children parent under it); finish() pops it.
 *
 * Event names follow the metric naming convention documented in
 * OBSERVABILITY.md: `layer.component.event`, e.g.
 * `milana.txn.commit`, `flash.ssd.op`, `clocksync.sync.exchange`.
 */

#ifndef COMMON_TRACE_HH
#define COMMON_TRACE_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace common {

class TimeSeriesLog;

enum class TraceKind : std::uint8_t
{
    Instant,
    SpanBegin,
    SpanEnd,
};

/** One-letter code used by the JSON/CSV exports ("I", "B", "E"). */
const char *traceKindCode(TraceKind kind);

/**
 * Causal context carried across coroutine continuations and network
 * messages: the transaction/trace the current execution path serves,
 * and the innermost open span (the parent of anything emitted next).
 * A zero context means "not inside any traced operation".
 */
struct TraceContext
{
    /** Groups every span/instant of one logical operation (one MILANA
     *  transaction). 0 = no trace. */
    std::uint64_t traceId = 0;
    /** The innermost open span; new spans/instants parent under it. */
    std::uint64_t spanId = 0;

    bool active() const { return (traceId | spanId) != 0; }
};

namespace detail {
/** The ambient context. Each simulator is single-threaded (see
 *  sim/simulator.hh), but parallel sweeps (bench::SweepRunner) run one
 *  simulator per worker thread — thread_local keeps every cell's
 *  ambient context private. The run loop installs each event's
 *  captured context before it fires. */
inline thread_local TraceContext g_traceContext;
} // namespace detail

inline const TraceContext &
currentTraceContext()
{
    return detail::g_traceContext;
}

inline void
setCurrentTraceContext(const TraceContext &ctx)
{
    detail::g_traceContext = ctx;
}

/** RAII: install @p ctx for a scope, restore the previous on exit. */
class TraceContextScope
{
  public:
    explicit TraceContextScope(const TraceContext &ctx)
        : prev_(detail::g_traceContext)
    {
        detail::g_traceContext = ctx;
    }
    ~TraceContextScope() { detail::g_traceContext = prev_; }

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    TraceContext prev_;
};

struct TraceEvent
{
    /** Global append order; breaks ties between identical timestamps
     *  (the simulator processes many events at the same instant). */
    std::uint64_t seq = 0;
    /** Simulator TrueTime at emission (ns). */
    Time trueTime = 0;
    /** The emitting node's LocalTime (ns) — differs from trueTime by
     *  the node's current clock error. */
    Time localTime = 0;
    NodeId node = 0;
    TraceKind kind = TraceKind::Instant;
    /** Pairs SpanBegin/SpanEnd records; 0 for instants. */
    std::uint64_t span = 0;
    /** The trace (transaction) this event belongs to; 0 = untraced. */
    std::uint64_t traceId = 0;
    /** The enclosing span at emission; for a SpanBegin/SpanEnd pair
     *  this is the span's parent. 0 = top-level. */
    std::uint64_t parentSpan = 0;
    /** `layer.component.event` (see OBSERVABILITY.md). */
    std::string name;
    /** Free-form qualifier: abort reason, op kind, vote... */
    std::string tag;
    /** Free numeric payload: channel index, offset (ns), count... */
    std::int64_t arg = 0;
    /** Second numeric payload: version timestamp, queue wait (ns)... */
    std::int64_t arg2 = 0;
};

class TraceLog
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** Sees every append (including events later evicted), after the
     *  seq stamp. Used by online checkers (InvariantMonitor). */
    using Observer = std::function<void(const TraceEvent &)>;

    explicit TraceLog(std::size_t capacity = kDefaultCapacity);

    /** Allocate a fresh span id (never 0). */
    std::uint64_t
    nextSpanId()
    {
        return nextSpan_++;
    }

    /** Allocate a fresh trace (transaction) id (never 0). */
    std::uint64_t
    nextTraceId()
    {
        return nextTrace_++;
    }

    /** Record an event; stamps seq, evicts the oldest when full. */
    void append(TraceEvent event);

    /** Install (or clear, with nullptr) the append observer. */
    void setObserver(Observer observer) { observer_ = std::move(observer); }

    std::size_t capacity() const { return capacity_; }
    /** Events currently held (<= capacity). */
    std::size_t size() const;
    /** Total events ever appended, including evicted ones. */
    std::uint64_t recorded() const { return appended_; }
    /** Events lost to ring-buffer eviction. */
    std::uint64_t dropped() const;

    void clear();

    /** Surviving events ordered by (trueTime, seq). Within one log the
     *  two orders agree (time is monotonic), but the tie-break is
     *  explicit so exported traces are byte-stable per seed. */
    std::vector<TraceEvent> snapshot() const;

    /** Full trace document (schema milana-trace-v2): header + events. */
    void writeJson(std::ostream &os) const;
    /** One header line + one line per event. */
    void writeCsv(std::ostream &os) const;
    /** Chrome/Perfetto trace-event JSON (load at ui.perfetto.dev).
     *  One process ("track group") per node; spans are async events
     *  keyed by span id, so interleaved coroutines render correctly.
     *  When @p metrics is non-null, its deterministic series are
     *  emitted as counter ("C") tracks alongside the spans — counter
     *  series as per-second rates, gauges raw, histogram series as
     *  their per-window p99. */
    void writePerfetto(std::ostream &os,
                       const TimeSeriesLog *metrics = nullptr) const;

  private:
    std::vector<TraceEvent> ring_;
    std::size_t capacity_;
    std::uint64_t appended_ = 0;
    std::uint64_t nextSpan_ = 1;
    std::uint64_t nextTrace_ = 1;
    Observer observer_;
};

/** A parsed milana-trace-v2 document (tools, tests). */
struct ParsedTrace
{
    std::uint64_t capacity = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;
};

/**
 * Parse a milana-trace-v2 JSON document. Returns false with a one-line
 * @p error on malformed input or any other schema.
 */
bool parseTraceJson(std::string_view text, ParsedTrace &out,
                    std::string &error);

/**
 * Per-component emission handle. Components own one by value; the
 * cluster builder (or a test) arms it with attach(). Clock accessors
 * are std::function so common/ need not depend on sim/ or clocksync/.
 */
class Tracer
{
  public:
    using TimeFn = std::function<Time()>;

    Tracer() = default; ///< disabled: all emits are no-ops

    void attach(TraceLog &log, NodeId node, TimeFn true_now,
                TimeFn local_now);

    bool enabled() const { return log_ != nullptr; }

    /** Fresh trace id for a new top-level operation (0 if disabled). */
    std::uint64_t newTraceId()
    {
        return enabled() ? log_->nextTraceId() : 0;
    }

    void instant(std::string_view name, std::string_view tag = {},
                 std::int64_t arg = 0, std::int64_t arg2 = 0);

    /** Emit SpanBegin; returns the span id (0 when disabled). */
    std::uint64_t begin(std::string_view name, std::string_view tag = {},
                        std::int64_t arg = 0);
    void end(std::uint64_t span, std::string_view name,
             std::string_view tag = {}, std::int64_t arg = 0,
             std::int64_t arg2 = 0);

  private:
    void emit(TraceKind kind, std::uint64_t span, std::string_view name,
              std::string_view tag, std::int64_t arg, std::int64_t arg2);

    TraceLog *log_ = nullptr;
    NodeId node_ = 0;
    TimeFn trueNow_;
    TimeFn localNow_;
};

/**
 * RAII span: begin at construction, end at destruction (or finish()).
 * The tag/arg set before the end ride on the SpanEnd event, so a
 * result discovered mid-span (abort reason, vote) labels the span.
 *
 * Construction makes this span the current TraceContext (inheriting
 * the ambient trace id), so nested spans and instants parent under
 * it — including across co_awaits, because the sim layer saves and
 * restores the context around every suspension. finish() restores the
 * surrounding context.
 *
 * The span keeps views of its name and tag, not copies: spans sit in
 * coroutine frames on every RPC, and copying a name longer than the
 * small-string buffer cost a heap allocation even with tracing off.
 * The name and every tag must outlive the span; string literals and
 * the static names of abortReasonName() and friends do.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string_view name,
               std::string_view tag = {});
    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setTag(std::string_view tag) { tag_ = tag; }
    void setArg(std::int64_t arg) { arg_ = arg; }
    void setArg2(std::int64_t arg2) { arg2_ = arg2; }

    std::uint64_t id() const { return span_; }

    /** Emit the SpanEnd now; later calls (and destruction) no-op. */
    void finish();

  private:
    Tracer &tracer_;
    std::string_view name_;
    std::string_view tag_;
    std::int64_t arg_ = 0;
    std::int64_t arg2_ = 0;
    std::uint64_t span_ = 0;
    /** Context to restore on finish; also stamps the SpanEnd (the end
     *  record carries the same trace/parent as the begin). */
    TraceContext prev_;
    bool done_ = false;
};

} // namespace common

#endif // COMMON_TRACE_HH
