/**
 * @file
 * Simulated self time per layer, observed from outside the program.
 *
 * SpanProfile is a TraceLog observer: it pairs every SpanBegin with
 * its SpanEnd and charges the span's *self* time — its duration minus
 * the part of that interval covered by its child spans (children may
 * overlap, e.g. a replication fan-out, so the union is subtracted) —
 * to the layer its name belongs to. Times are simulated (TrueTime).
 *
 * The benchmark chains an InvariantMonitor behind it, so one trace
 * stream feeds both the per-layer split and the correctness checks.
 */

#ifndef E2E_BENCH_SPAN_PROFILE_HH
#define E2E_BENCH_SPAN_PROFILE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.hh"

namespace e2e {

class SpanProfile
{
  public:
    /** Layers whose spans are attributed; everything else is Other. */
    enum Layer : std::uint8_t
    {
        Net,          ///< net.rpc
        MilanaServer, ///< milana.server.*
        Flash,        ///< flash.ssd.op
        Other,
        kLayers,
    };

    /** Charge only spans that end while counting is on (the measured
     *  window); spans are tracked regardless, so a span that began
     *  before the window still finds its children. */
    void setCounting(bool on) { counting_ = on; }

    void
    onEvent(const common::TraceEvent &e)
    {
        if (e.kind == common::TraceKind::SpanBegin)
            onBegin(e);
        else if (e.kind == common::TraceKind::SpanEnd)
            onEnd(e);
    }

    /** Simulated self time charged to @p layer (ns). */
    double selfNs(Layer layer) const { return selfNs_[layer]; }

  private:
    static constexpr common::Time kStillOpen =
        std::numeric_limits<common::Time>::max();
    static constexpr std::size_t kNoSlot =
        std::numeric_limits<std::size_t>::max();

    struct Open
    {
        Layer layer = Other;
        common::Time begin = 0;
        std::uint64_t parent = 0;
        /** This span's interval slot in its parent's kids. */
        std::size_t slot = kNoSlot;
        std::vector<std::pair<common::Time, common::Time>> kids;
    };

    static Layer
    layerOf(std::string_view name)
    {
        if (name == "net.rpc")
            return Net;
        if (name.starts_with("milana.server."))
            return MilanaServer;
        if (name == "flash.ssd.op")
            return Flash;
        return Other;
    }

    void
    onBegin(const common::TraceEvent &e)
    {
        Open span;
        span.layer = layerOf(e.name);
        span.begin = e.trueTime;
        span.parent = e.parentSpan;
        if (auto it = open_.find(e.parentSpan); it != open_.end()) {
            span.slot = it->second.kids.size();
            it->second.kids.emplace_back(e.trueTime, kStillOpen);
        }
        open_[e.span] = std::move(span);
    }

    void
    onEnd(const common::TraceEvent &e)
    {
        auto it = open_.find(e.span);
        if (it == open_.end())
            return;
        Open span = std::move(it->second);
        open_.erase(it);
        const common::Time end = e.trueTime;
        if (span.slot != kNoSlot) {
            if (auto p = open_.find(span.parent); p != open_.end())
                p->second.kids[span.slot].second = end;
        }
        if (!counting_ || span.layer == Other)
            return;
        // Union of the children's intervals, clipped to this span.
        std::sort(span.kids.begin(), span.kids.end());
        common::Time covered = 0;
        common::Time reach = span.begin;
        for (auto [lo, hi] : span.kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        selfNs_[span.layer] +=
            static_cast<double>(end - span.begin - covered);
    }

    bool counting_ = false;
    std::unordered_map<std::uint64_t, Open> open_;
    std::array<double, kLayers> selfNs_{};
};

} // namespace e2e

#endif // E2E_BENCH_SPAN_PROFILE_HH
