/**
 * @file
 * Cluster builder: wires simulator, network, clocks, storage devices,
 * FTL backends, SEMEL/MILANA servers and clients into one runnable
 * topology — the simulated equivalent of the paper's ExoGENI testbed.
 *
 * Reproduces the paper's configurations:
 *  - section 5.2 first experiment: 1 node, zero skew, N clients,
 *    SFTL vs MFTL backends (Figure 6);
 *  - 3 storage + 5 client VMs, 20 Retwis instances, PTP vs NTP
 *    (Figure 7);
 *  - 3 shards x 3 replicas, 75% read-only Retwis, local validation
 *    on/off (Figure 8);
 *  - 3 shards unreplicated with Centiman validators (Figure 9).
 */

#ifndef WORKLOAD_CLUSTER_HH
#define WORKLOAD_CLUSTER_HH

#include <memory>
#include <string>
#include <vector>

#include "clocksync/sync.hh"
#include "common/chaos.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "ftl/mftl.hh"
#include "ftl/sftl.hh"
#include "ftl/vftl.hh"
#include "milana/centiman.hh"
#include "milana/client.hh"
#include "milana/server.hh"
#include "net/network.hh"
#include "semel/shard_map.hh"
#include "sim/simulator.hh"

namespace workload {

/** Storage backend flavours the paper evaluates. */
enum class BackendKind
{
    Dram,
    Mftl,
    Vftl,
    /** SFTL used directly as a single-version KV store (Figure 6). */
    SingleVersion,
};

const char *backendName(BackendKind kind);

/** Clock disciplines selectable per experiment. */
enum class ClockKind
{
    Perfect, ///< zero skew (single-machine experiments)
    PtpHw,
    PtpSw, ///< the paper's PTP configuration
    Ntp,
    Dtp,
};

const char *clockName(ClockKind kind);

struct ClusterConfig
{
    std::uint32_t numShards = 3;
    std::uint32_t replicasPerShard = 3;
    std::uint32_t numClients = 20;
    BackendKind backend = BackendKind::Mftl;
    ClockKind clocks = ClockKind::PtpSw;
    std::uint64_t numKeys = 50'000;
    std::uint64_t seed = 1;
    bool localValidation = true;
    bool centiman = false;
    std::uint32_t centimanDisseminateEvery = 1000;
    net::NetConfig net;
    /**
     * When non-null, every component (clients, servers, devices, sync
     * agents) emits trace events into this log, stamped with TrueTime
     * and the emitting node's LocalTime. Null = tracing off (no cost
     * beyond one branch per site).
     */
    common::TraceLog *trace = nullptr;
    /**
     * When non-null, the cluster samples every component StatSet plus
     * a set of instantaneous gauges (clock offsets, pairwise skew,
     * SSD queue occupancy) into this registry's TimeSeriesLog on the
     * registry's interval, aligned to interval boundaries of simulated
     * time. Null = metrics off, zero cost.
     */
    common::MetricsRegistry *metrics = nullptr;
    /**
     * When non-null, the cluster applies this engine's fault schedule
     * once armChaos() is called. The engine is also handed to every
     * server and client (abort-reason classification, fault-name trace
     * tags) and its forked RNG streams to every SSD (construction
     * order).
     */
    common::ChaosEngine *chaos = nullptr;
};

class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);
    ~Cluster();

    /** The scenario's simulator. */
    sim::Simulator &sim() { return sim_; }
    const ClusterConfig &config() const { return config_; }

    // Shorthands for the simulator's run calls.
    common::Time now() const { return sim_.now(); }
    std::uint64_t runUntil(common::Time t) { return sim_.runUntil(t); }
    std::uint64_t
    runFor(common::Duration d, common::Duration grace = common::kSecond)
    {
        return sim_.runFor(d, grace);
    }
    void requestStop() { sim_.requestStop(); }

    /**
     * Schedule config().chaos's actions as simulator events, each at
     * now() + its time: the event applies the fault's mutation, then
     * records it in the engine. Call once, when the schedule's clock
     * should start; no-op without an engine. PANICs, before scheduling
     * anything, if a selector names no node of this topology.
     */
    void armChaos();

    /**
     * Finish the metrics plane: flush the final partial window into
     * config().metrics. Call after the run, before exporting;
     * idempotent. No-op when config().metrics is null.
     */
    void finishMetrics();

    /** Bulk-load the key space into every replica. Run to completion
     *  before starting the workload. */
    void populate();

    /** Start servers (leases, CTP, GC) and client watermark loops. */
    void start();

    std::uint32_t numClients() const { return config_.numClients; }
    milana::MilanaClient &client(std::uint32_t i) { return *clients_[i]; }

    milana::MilanaServer &primary(common::ShardId shard);
    milana::MilanaServer &server(std::size_t index) { return *servers_[index]; }
    std::size_t numServers() const { return servers_.size(); }

    semel::Master &master() { return master_; }
    semel::Directory &directory() { return directory_; }
    net::Network &network() { return net_; }

    /** Aggregate of all client stat sets. */
    common::StatSet clientStats() const;
    /** Aggregate of all server stat sets. */
    common::StatSet serverStats() const;
    /** Clock-sync exchange stats and pairwise skew (empty without an
     *  ensemble). */
    common::StatSet clockStats() const;
    /** Aggregate of all storage backend stat sets (mftl.*, vftl.*,
     *  dram.*, ...), plus the SFTL under each VFTL or single-version
     *  backend (sftl.*). Counted from construction or the last
     *  resetStats(). */
    common::StatSet backendStats() const;
    /** Aggregate of all flash device stat sets (ssd.*; empty on the
     *  DRAM backend). Counted like backendStats. */
    common::StatSet deviceStats() const;
    /** Reset every client, server, network, clock-sync, backend and
     *  device counter and histogram (end of warm-up), so every
     *  section covers the measured window. */
    void resetStats();

    /** Average pairwise client clock skew (ns) sampled since start()
     *  or the last resetStats(); 0 without an ensemble. */
    double avgClientSkew() const;

    /**
     * Fail over a shard to the given replica: repoints the master and
     * runs the recovery protocol on the new primary.
     */
    sim::Task<void> failover(common::ShardId shard,
                             common::NodeId new_primary);

  private:
    /**
     * Perform one fault mutation (start or heal). Resolves symbolic
     * node selectors against the *current* topology (so `primary:0`
     * tracks failovers). A fault with no matching component (a clock
     * fault on Perfect clocks) is a no-op.
     */
    void applyFault(const common::FaultSpec &fault, bool start);
    /** True unless @p sel, in a fault of @p kind, names a node, shard,
     *  replica, client or clock slot this topology lacks. */
    bool selectsInTopology(common::FaultKind kind,
                           const common::NodeSel &sel) const;
    /** Expand a symbolic selector that selectsInTopology accepted to
     *  concrete node ids. */
    std::vector<common::NodeId> resolveSel(const common::NodeSel &sel) const;
    /** Clock indices (ensemble slots) an accepted selector names;
     *  empty without an ensemble (Perfect clocks — clock faults are
     *  no-ops). */
    std::vector<std::size_t> resolveClockSel(const common::NodeSel &sel) const;
    void buildStorageNode(common::ShardId shard, std::uint32_t replica);
    /** Arm every component's Tracer on config_.trace. */
    void attachTracers();

    /** Register every component's StatSet and gauges with
     *  config_.metrics. */
    void attachMetrics();
    /** Prime delta baselines and schedule the periodic samplers
     *  (start() time, so population is not in the first window). */
    void startMetricsSamplers();

    ClusterConfig config_;
    sim::Simulator sim_;
    /** Every server's clock, and every client's without an ensemble:
     *  stateless, so one serves them all. */
    clocksync::PerfectClock perfectClock_;
    common::Rng rng_;
    net::Network net_;
    bool metricsFinished_ = false;
    semel::ShardMap shardMap_;
    semel::Master master_;
    semel::Directory directory_;

    // Storage stack, one entry per server node.
    std::vector<std::unique_ptr<flash::SsdDevice>> devices_;
    std::vector<std::unique_ptr<ftl::Sftl>> sftls_;
    std::vector<std::unique_ptr<ftl::KvBackend>> backends_;
    std::vector<std::unique_ptr<milana::MilanaServer>> servers_;

    // Client clocks: an ensemble, or perfectClock_ for every client.
    std::unique_ptr<clocksync::ClockEnsemble> ensemble_;
    milana::CentimanSystem centimanSystem_;
    std::vector<std::unique_ptr<milana::MilanaClient>> clients_;
};

} // namespace workload

#endif // WORKLOAD_CLUSTER_HH
