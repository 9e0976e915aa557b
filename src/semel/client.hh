/**
 * @file
 * SEMEL client library (paper section 3): runs on an application
 * server, stamps every operation with the node's PTP/NTP-disciplined
 * clock, routes it to the shard primary via the master's map, retries
 * idempotently on timeouts, and periodically broadcasts its
 * last-acknowledged timestamp for watermark GC.
 */

#ifndef SEMEL_CLIENT_HH
#define SEMEL_CLIENT_HH

#include <optional>

#include "clocksync/clock.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "net/network.hh"
#include "semel/server.hh"
#include "semel/shard_map.hh"
#include "sim/task.hh"

namespace semel {

class Client
{
  public:
    struct Config
    {
        std::uint32_t maxRetries = 3;
        common::Duration watermarkPeriod = 100 * common::kMillisecond;
    };

    Client(sim::Simulator &sim, net::Network &net, NodeId node,
           ClientId client_id, clocksync::Clock &clock,
           const Master &master, const Directory &directory,
           const Config &config);
    virtual ~Client() = default;

    ClientId clientId() const { return clientId_; }
    NodeId nodeId() const { return node_; }
    clocksync::Clock &clock() { return clock_; }

    /** Current LocalTime of this client's clock. */
    Time now() { return clock_.localNow(); }

    /** Read the youngest version as of the client's current time. */
    sim::Task<std::optional<GetResponse>> get(Key key);

    /** Snapshot read at an explicit bound (used by MILANA). */
    sim::Task<std::optional<GetResponse>> getAt(Key key, Version at);

    /** Create a new version stamped with the client's current time. */
    sim::Task<PutResult> put(Key key, Value value);

    /** Delete all versions of a key. */
    sim::Task<PutResult> del(Key key);

    /** Start the periodic watermark broadcast. */
    void start();

    /** Timestamp of the last acknowledged operation. */
    Time lastAcked() const { return lastAcked_; }

    /** Reported with lastAcked(): no operation of this client stamped
     *  below it still awaits a reply. Plain SEMEL operations complete
     *  when acknowledged, so it is lastAcked(). */
    virtual Time doneBelow() const { return lastAcked_; }

    common::StatSet &stats() { return stats_; }

    /** Trace emission handle; disabled until the cluster attaches it. */
    common::Tracer &tracer() { return trace_; }

  protected:
    Server *primaryFor(Key key) const;
    void noteAcked(Time timestamp);
    sim::Task<void> watermarkLoop();

    sim::Simulator &sim_;
    net::Network &net_;
    NodeId node_;
    ClientId clientId_;
    clocksync::Clock &clock_;
    const Master &master_;
    const Directory &directory_;
    Config config_;
    Time lastAcked_ = 0;
    common::StatSet stats_;
    common::Tracer trace_;
};

} // namespace semel

#endif // SEMEL_CLIENT_HH
