/**
 * @file
 * Simulated intra-data-center network.
 *
 * The experiments run on a single simulated process, so "RPC" is a
 * direct coroutine call wrapped in sampled message delays plus fault
 * checks. The model captures what the paper's results depend on:
 *
 *  - one-way latency magnitude (tens of microseconds VM-to-VM, i.e.
 *    commensurate with flash access times — the regime the paper
 *    targets);
 *  - round-trip counting: MILANA's local validation wins exactly two
 *    round trips (client->primary and primary->backups), so the
 *    latency model must charge each leg;
 *  - fault injection: nodes can crash (no reply, requests dropped) and
 *    links can be partitioned, which drives the recovery tests.
 *
 * Crash semantics: a request to a crashed node is never executed; if a
 * node crashes mid-handler the handler's local effects persist (its
 * storage survives) but the response is dropped — the classic
 * ambiguity distributed commit protocols must tolerate.
 */

#ifndef NET_NETWORK_HH
#define NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/key_table.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace net {

using common::Duration;
using common::NodeId;

/**
 * Pseudo node id for the network's own trace spans (`net.rpc`).
 * Real storage nodes are < 100 and clients are >= 1000, so 999 cannot
 * collide with either.
 */
inline constexpr NodeId kNetworkNode = 999;

/**
 * Metadata every simulated message carries, mirroring what a real
 * transport would put on the wire. The TraceContext is captured on the
 * sending node and restored on the receiving node, which is what links
 * a server-side handler's spans to the client transaction that issued
 * the RPC.
 */
struct MessageHeader
{
    common::TraceContext trace;
};

struct NetConfig
{
    /** Mean one-way message latency. */
    Duration oneWayMean = 50 * common::kMicrosecond;
    /** Std-dev of the one-way latency. */
    Duration oneWaySigma = 10 * common::kMicrosecond;
    /** Hard lower bound on any message delay. */
    Duration minLatency = 5 * common::kMicrosecond;
    /** Caller-side RPC timeout. */
    Duration rpcTimeout = 25 * common::kMillisecond;
};

class Network
{
  public:
    Network(sim::Simulator &sim, const NetConfig &config, common::Rng rng);

    const NetConfig &config() const { return config_; }

    /** Sample one message delay. */
    Duration sampleDelay();

    /** Sample a delay for the @p from -> @p to leg and record it in
     *  the per-link histogram `net.link.<from>-<to>.delay`. */
    Duration sampleDelay(NodeId from, NodeId to);

    /** Crash / restart a node. */
    void setNodeDown(NodeId node, bool down);
    bool nodeDown(NodeId node) const;

    /** Cut / heal the (bidirectional) link between two nodes. */
    void setLinkBroken(NodeId a, NodeId b, bool broken);

    /** Cut / heal one direction only (asymmetric partition). */
    void setLinkBrokenOneWay(NodeId from, NodeId to, bool broken);

    /** True if a message from @p from can currently reach @p to. */
    bool deliverable(NodeId from, NodeId to) const;

    /** Delay spike on every link (>= 0; sampled delays are multiplied
     *  and re-floored at minLatency, so no extra RNG draw happens). */
    void setDelayFactor(double factor);
    /** Per-link delay factor, both directions (1.0 = clear). */
    void setLinkDelayFactor(NodeId a, NodeId b, double factor);
    double delayFactor(NodeId from, NodeId to) const;

    common::StatSet &stats() { return stats_; }

    /** The network's own Tracer (spans emitted as node kNetworkNode). */
    common::Tracer &tracer() { return tracer_; }

    /**
     * Invoke a handler coroutine on node @p to on behalf of node
     * @p from, modelling request delay, execution, and response delay.
     *
     * The handler is passed as an *unstarted* sim::Task (tasks are
     * lazy): build it at the call site — e.g.
     * `net.callTyped<GetResponse>(me, srv, server->handleGet(req))` —
     * and its body only runs if/when the request arrives. Request
     * arguments are copied into the handler's own frame at creation,
     * so nothing dangles across the delays.
     *
     * Returns nullopt if the request or response is lost (crash or
     * partition) — after the configured RPC timeout, as a real caller
     * would observe.
     */
    template <typename Resp>
    sim::Task<std::optional<Resp>>
    callTyped(NodeId from, NodeId to, sim::Task<Resp> handler)
    {
        calls_.inc();
        // The RPC span inherits the caller's ambient context (the task
        // starts inline in the caller); the message header then
        // carries the context *including this span*, so handler-side
        // spans chain caller -> net.rpc -> handler.
        common::ScopedSpan rpc(tracer_, "net.rpc");
        rpc.setArg(from);
        rpc.setArg2(to);
        const MessageHeader header{common::currentTraceContext()};
        const std::optional<Duration> request = legDelay(from, to);
        if (!request) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            requestLost_.inc();
            rpc.setTag("request_lost");
            co_return std::nullopt;
        }
        co_await sim::sleepFor(sim_, *request);
        // Re-check on arrival: the destination may have crashed while
        // the request was in flight (the unexecuted handler is
        // discarded, as a dropped packet would be).
        if (nodeDown(to)) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            requestLost_.inc();
            rpc.setTag("request_lost");
            co_return std::nullopt;
        }
        // "Receiving node": restore the header's context around the
        // handler, as a real server's RPC layer would.
        common::TraceContextScope deliverScope(header.trace);
        Resp resp = co_await std::move(handler);
        const std::optional<Duration> response = legDelay(to, from);
        if (!response) {
            co_await sim::sleepFor(sim_, config_.rpcTimeout);
            responseLost_.inc();
            rpc.setTag("response_lost");
            co_return std::nullopt;
        }
        co_await sim::sleepFor(sim_, *response);
        co_return resp;
    }

    /** One-way message: runs @p deliver on arrival unless lost. */
    template <typename Deliver>
    void
    send(NodeId from, NodeId to, Deliver deliver)
    {
        sends_.inc();
        const std::optional<Duration> delay = legDelay(from, to);
        if (!delay)
            return;
        const MessageHeader header{common::currentTraceContext()};
        sim_.schedule(*delay,
                      [this, to, header, deliver = std::move(deliver)] {
                          if (nodeDown(to))
                              return;
                          common::TraceContextScope scope(header.trace);
                          deliver();
                      });
    }

  private:
    /** State of one directed link: a KeyTable slot keyed by
     *  from << 32 | to, created (all zero) at the link's first use. */
    struct Link
    {
        common::Key key;
        std::uint32_t dist;
        /** This direction drops messages. */
        bool broken;
        /** `factor` overrides the global delay factor. */
        bool hasFactor;
        double factor;
        /** `net.link.<from>-<to>.delay`, bound at the first sampled
         *  delay so a leg that carried nothing has no histogram. */
        common::Histogram *delay;
    };

    /** deliverable() for a leg whose record is @p l (nullptr: the
     *  link was never used). */
    bool deliverable(NodeId from, NodeId to, const Link *l) const;
    /** delayFactor() for the record @p l (nullptr: never used). */
    double delayFactor(const Link *l) const;

    /** Sample a delay for @p l, the @p from -> @p to leg. */
    Duration sampleDelay(Link &l, NodeId from, NodeId to);

    /** One message leg, with one link lookup: its sampled delay, or
     *  nullopt if deliverable(from, to) is false (nothing is sampled
     *  then). */
    std::optional<Duration> legDelay(NodeId from, NodeId to);

    sim::Simulator &sim_;
    NetConfig config_;
    common::Rng rng_;
    std::vector<bool> down_;
    double delayFactorAll_ = 1.0;
    common::KeyTable<Link> links_;
    common::StatSet stats_;
    common::CounterHandle calls_{stats_, "net.calls"};
    common::CounterHandle sends_{stats_, "net.sends"};
    common::CounterHandle requestLost_{stats_, "net.request_lost"};
    common::CounterHandle responseLost_{stats_, "net.response_lost"};
    common::Tracer tracer_;
};

} // namespace net

#endif // NET_NETWORK_HH
