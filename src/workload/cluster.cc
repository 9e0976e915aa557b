#include "workload/cluster.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/future.hh"

namespace workload {

using common::kMicrosecond;

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Dram: return "DRAM";
      case BackendKind::Mftl: return "MFTL";
      case BackendKind::Vftl: return "VFTL";
      case BackendKind::SingleVersion: return "SFTL";
    }
    return "?";
}

const char *
clockName(ClockKind kind)
{
    switch (kind) {
      case ClockKind::Perfect: return "perfect";
      case ClockKind::PtpHw: return "PTP-hw";
      case ClockKind::PtpSw: return "PTP";
      case ClockKind::Ntp: return "NTP";
      case ClockKind::Dtp: return "DTP";
    }
    return "?";
}

namespace {

/** Device sizing of every multi-version storage-server SSD: live data
 *  over usable capacity. */
constexpr double kDeviceUtilization = 0.35;
/** Flash channels per storage-server SSD: the shared single-SSD
 *  experiments use the Geometry default of 32, cluster VMs get a
 *  smaller slice, as in the paper's per-VM emulated devices. */
constexpr std::uint32_t kDeviceChannels = 8;
/** Client i is node kFirstClientNode + i. */
constexpr common::NodeId kFirstClientNode = 1000;

clocksync::SyncConfig
syncConfigFor(ClockKind kind)
{
    switch (kind) {
      case ClockKind::PtpHw: return clocksync::SyncConfig::ptpHardware();
      case ClockKind::PtpSw: return clocksync::SyncConfig::ptpSoftware();
      case ClockKind::Ntp: return clocksync::SyncConfig::ntp();
      case ClockKind::Dtp: return clocksync::SyncConfig::dtp();
      case ClockKind::Perfect: return clocksync::SyncConfig::perfect();
    }
    return clocksync::SyncConfig::perfect();
}

/**
 * Self-rescheduling sampler event: fires at every interval boundary
 * of simulated time and samples the window that just ended. 16 bytes
 * — lives in the Callback's inline storage, so the steady-state
 * sampling path allocates nothing.
 */
struct MetricsTick
{
    sim::Simulator *sim;
    common::MetricsRegistry *reg;

    void
    operator()() const
    {
        const common::Duration interval = reg->interval();
        const common::Time t = sim->now();
        reg->sample(std::max<common::Time>(t - interval, 0), t);
        // Keep sampling through the run; wind down once stop is
        // requested (the end-of-run flush covers the tail).
        if (!sim->stopRequested())
            sim->schedule(interval, MetricsTick{*this});
    }
};

void
scheduleFirstMetricsTick(sim::Simulator &sim,
                         common::MetricsRegistry *reg)
{
    const common::Duration interval = reg->interval();
    // First fire at the next interval boundary (a full interval away
    // when already aligned), so every window start is a multiple of
    // the interval.
    const common::Duration delay = interval - sim.now() % interval;
    sim.schedule(delay, MetricsTick{&sim, reg});
}

/** Flush the final (possibly partial) window [last boundary, end). */
void
flushRegistry(common::MetricsRegistry &reg, common::Time end)
{
    const common::Duration interval = reg.interval();
    common::Time ws = end / interval * interval;
    if (ws == end)
        ws = end - interval; // exactly on a boundary: one full window
    reg.sample(std::max<common::Time>(ws, 0), end);
}

} // namespace

Cluster::Cluster(const ClusterConfig &config)
    : config_(config),
      perfectClock_(sim_),
      rng_(config.seed),
      net_(sim_, config_.net, rng_.fork()),
      shardMap_(config.numShards),
      master_(shardMap_)
{
    // Storage nodes: node id = shard * replicas + replica.
    for (common::ShardId shard = 0; shard < config_.numShards; ++shard) {
        std::vector<common::NodeId> replicas;
        for (std::uint32_t r = 0; r < config_.replicasPerShard; ++r) {
            buildStorageNode(shard, r);
            replicas.push_back(servers_.back()->nodeId());
        }
        master_.setReplicas(shard, replicas);
    }
    // Wire primaries to their backups.
    for (common::ShardId shard = 0; shard < config_.numShards; ++shard) {
        auto &primary_server = primary(shard);
        std::vector<semel::Server *> backups;
        for (common::NodeId node : master_.backupsOf(shard))
            backups.push_back(directory_.at(node));
        primary_server.setBackups(std::move(backups));
    }

    // Client clocks.
    if (config_.clocks != ClockKind::Perfect) {
        ensemble_ = std::make_unique<clocksync::ClockEnsemble>(
            sim_, config_.numClients, syncConfigFor(config_.clocks),
            rng_);
    }

    centimanSystem_ =
        milana::CentimanSystem(config_.centimanDisseminateEvery);

    milana::MilanaClient::TxnConfig txn_config;
    txn_config.localValidation = config_.localValidation;
    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        const common::NodeId node = kFirstClientNode + i;
        clocksync::Clock *clock = ensemble_ != nullptr
                                      ? &ensemble_->clock(i)
                                      : &perfectClock_;
        if (config_.centiman) {
            clients_.push_back(std::make_unique<milana::CentimanClient>(
                sim_, net_, node, i + 1, *clock, master_, directory_,
                txn_config, centimanSystem_));
        } else {
            clients_.push_back(std::make_unique<milana::MilanaClient>(
                sim_, net_, node, i + 1, *clock, master_, directory_,
                txn_config));
        }
    }

    // Chaos wiring: servers classify clock-suspect aborts, clients
    // classify fault-window timeouts and tag txn traces, devices get
    // dedicated fault-randomness streams (forked in construction
    // order — part of the determinism contract).
    if (config_.chaos != nullptr) {
        for (auto &server : servers_)
            server->setChaos(config_.chaos);
        for (auto &client : clients_)
            client->setChaos(config_.chaos);
        for (auto &device : devices_)
            if (device != nullptr)
                device->setFaultRng(config_.chaos->forkRng());
    }

    if (config_.trace != nullptr)
        attachTracers();
    if (config_.metrics != nullptr)
        attachMetrics();
}

void
Cluster::armChaos()
{
    if (config_.chaos == nullptr)
        return;
    // A selector that names nothing here is a schedule mistake: fail
    // before anything is scheduled rather than mid-run.
    for (const common::FaultSpec &fault : config_.chaos->faults())
        for (const common::NodeSel *sel : {&fault.selA, &fault.selB})
            if (!selectsInTopology(fault.kind, *sel))
                PANIC("chaos fault `"
                      << fault.name << "`: a selector names no node of "
                      << config_.numShards << " shard(s) x "
                      << config_.replicasPerShard << " replica(s), "
                      << config_.numClients << " client(s)");
    const common::Time origin = now();
    for (const common::ChaosEngine::Action &action :
         config_.chaos->actions()) {
        sim_.scheduleAt(origin + action.at, [this, action] {
            applyFault(config_.chaos->faults()[action.fault],
                       action.start);
            config_.chaos->record(action);
        });
    }
}

void
Cluster::attachTracers()
{
    const auto true_now = [this] { return sim_.now(); };
    // The network has no drifted clock of its own; its net.rpc spans
    // carry TrueTime in both stamps.
    net_.tracer().attach(*config_.trace, net::kNetworkNode, true_now,
                         true_now);
    if (config_.chaos != nullptr) {
        config_.chaos->tracer().attach(*config_.trace, net::kNetworkNode,
                                       true_now, true_now);
    }

    // Servers run on perfectClock_: their local stamps are TrueTime.
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        milana::MilanaServer *server = servers_[i].get();
        server->tracer().attach(*config_.trace, server->nodeId(),
                                true_now, true_now);
        if (devices_[i] != nullptr)
            devices_[i]->tracer().attach(*config_.trace, server->nodeId(),
                                         true_now, true_now);
    }
    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        milana::MilanaClient *client = clients_[i].get();
        clocksync::Clock *clock = &client->clock();
        const auto local_now = [clock] { return clock->localNow(); };
        client->tracer().attach(*config_.trace, client->nodeId(),
                                true_now, local_now);
        if (ensemble_ != nullptr)
            ensemble_->agent(i).tracer().attach(*config_.trace,
                                                client->nodeId(),
                                                true_now, local_now);
    }
}

void
Cluster::attachMetrics()
{
    common::MetricsRegistry &m = *config_.metrics;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        const common::NodeId node = servers_[i]->nodeId();
        m.addStatSet("server.", node, servers_[i]->stats());
        // Held and truncated transaction-table records and the table's
        // bytes: the soak check reads these to see server state plateau.
        const milana::MilanaServer *server = servers_[i].get();
        m.addGauge("milana.txn_table.records", node, [server] {
            return static_cast<double>(server->txnTable().size() +
                                       server->txnTable().decidedCount());
        });
        m.addGauge("milana.txn_table.pruned", node, [server] {
            return static_cast<double>(server->txnRecordsPruned());
        });
        m.addGauge("milana.txn_table.bytes", node, [server] {
            return static_cast<double>(server->txnTable().memoryBytes());
        });
        if (devices_[i] != nullptr) {
            flash::SsdDevice *dev = devices_[i].get();
            m.addStatSet("flash.", node, dev->stats());
            m.addGauge("flash.ssd.inflight", node, [dev] {
                return static_cast<double>(dev->inflightOps());
            });
            m.addGauge("flash.ssd.queued", node, [dev] {
                return static_cast<double>(dev->queuedOps());
            });
            m.addGauge("flash.ssd.busy_channels", node, [dev] {
                return static_cast<double>(dev->busyChannels());
            });
        }
    }

    for (std::uint32_t i = 0; i < config_.numClients; ++i) {
        milana::MilanaClient *client = clients_[i].get();
        m.addStatSet("client.", client->nodeId(), client->stats());
        clocksync::Clock *clock = &client->clock();
        m.addGauge("clocksync.offset_ns", client->nodeId(), [clock] {
            return static_cast<double>(clock->currentOffset());
        });
    }

    if (ensemble_ != nullptr) {
        // Attributed to the network pseudo-node: the skew is a
        // property of the whole ensemble, not of one client.
        clocksync::ClockEnsemble *ens = ensemble_.get();
        m.addStatSet("clocksync.", net::kNetworkNode, ensemble_->stats());
        m.addGauge("clocksync.max_pairwise_skew_ns", net::kNetworkNode,
                   [ens] {
                       return static_cast<double>(
                           ens->instantaneousMaxPairwiseSkew());
                   });
    }

    if (config_.chaos != nullptr) {
        // Chaos bookkeeping rides the network pseudo-node: faults are
        // cluster-wide events, not any one node's.
        common::ChaosEngine *chaos = config_.chaos;
        m.addStatSet("chaos.", net::kNetworkNode, chaos->stats());
        m.addGauge("chaos.active_faults", net::kNetworkNode, [chaos] {
            return static_cast<double>(chaos->activeCount());
        });
    }
}

void
Cluster::startMetricsSamplers()
{
    config_.metrics->prime();
    scheduleFirstMetricsTick(sim_, config_.metrics);
}

void
Cluster::finishMetrics()
{
    if (config_.metrics == nullptr || metricsFinished_)
        return;
    metricsFinished_ = true;
    flushRegistry(*config_.metrics, now());
}

Cluster::~Cluster() = default;

void
Cluster::buildStorageNode(common::ShardId shard, std::uint32_t replica)
{
    const common::NodeId node = shard * config_.replicasPerShard + replica;

    // Size the device for this shard's share of the key space (with
    // margin for hash imbalance), at the configured utilization.
    const std::uint64_t shard_keys =
        config_.numKeys / config_.numShards + config_.numKeys / 10 + 64;
    const std::uint64_t shard_bytes = shard_keys * flash::kRecordSize;

    ftl::KvBackend *backend = nullptr;
    switch (config_.backend) {
      case BackendKind::Dram: {
        devices_.push_back(nullptr);
        sftls_.push_back(nullptr);
        auto dram = std::make_unique<ftl::DramBackend>(sim_);
        backend = dram.get();
        backends_.push_back(std::move(dram));
        break;
      }
      case BackendKind::Mftl: {
        auto geo = flash::Geometry::scaledFor(shard_bytes,
                                              kDeviceUtilization);
        geo.numChannels = kDeviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(nullptr);
        auto mftl = std::make_unique<ftl::Mftl>(sim_, *devices_.back(),
                                                ftl::Mftl::Config{});
        backend = mftl.get();
        backends_.push_back(std::move(mftl));
        break;
      }
      case BackendKind::Vftl: {
        auto geo = flash::Geometry::scaledFor(shard_bytes,
                                              kDeviceUtilization);
        geo.numChannels = kDeviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(
            std::make_unique<ftl::Sftl>(sim_, *devices_.back()));
        auto vftl = std::make_unique<ftl::Vftl>(sim_, *sftls_.back(),
                                                ftl::Vftl::Config{});
        backend = vftl.get();
        backends_.push_back(std::move(vftl));
        break;
      }
      case BackendKind::SingleVersion: {
        // Slot mapping covers the whole key range.
        auto geo = flash::Geometry::scaledFor(
            config_.numKeys * flash::kRecordSize, 0.5);
        geo.numChannels = kDeviceChannels;
        devices_.push_back(
            std::make_unique<flash::SsdDevice>(sim_, geo));
        sftls_.push_back(
            std::make_unique<ftl::Sftl>(sim_, *devices_.back()));
        ftl::SingleVersionKv::Config cfg;
        cfg.capacityKeys = config_.numKeys;
        auto kv = std::make_unique<ftl::SingleVersionKv>(
            sim_, *sftls_.back(), cfg);
        backend = kv.get();
        backends_.push_back(std::move(kv));
        break;
      }
    }

    servers_.push_back(std::make_unique<milana::MilanaServer>(
        sim_, net_, node, shard, *backend, perfectClock_,
        config_.numClients, master_, directory_));
    directory_.add(servers_.back().get());
}

milana::MilanaServer &
Cluster::primary(common::ShardId shard)
{
    auto *server = dynamic_cast<milana::MilanaServer *>(
        directory_.at(master_.primaryOf(shard)));
    if (server == nullptr)
        PANIC("shard " << shard << " has no primary");
    return *server;
}

void
Cluster::populate()
{
    // Pre-size every server's per-key DRAM state (and its backend's
    // mapping table) for this shard's share of the key space, so the
    // bulk load below performs zero rehashes.
    const std::uint64_t shard_keys =
        config_.numKeys / config_.numShards + config_.numKeys / 10 + 64;
    for (auto &server : servers_)
        server->reserveKeys(shard_keys);

    const std::uint32_t workers = 64;
    auto remaining = std::make_shared<std::uint32_t>(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        sim::spawn([](Cluster *self, std::uint32_t worker,
                      std::uint32_t stride,
                      std::shared_ptr<std::uint32_t> remaining)
                       -> sim::Task<void> {
            const common::Version load_version{1, 0};
            for (common::Key key = worker; key < self->config_.numKeys;
                 key += stride) {
                const auto shard =
                    self->master_.shardMap().shardOf(key);
                for (common::NodeId node :
                     self->master_.replicasOf(shard)) {
                    auto *server = dynamic_cast<milana::MilanaServer *>(
                        self->directory_.at(node));
                    co_await server->loadKey(key, "init", load_version);
                }
            }
            --*remaining;
        }(this, w, workers, remaining));
    }
    sim_.run();
    if (*remaining != 0)
        PANIC("population did not finish");
}

void
Cluster::start()
{
    for (auto &backend : backends_)
        backend->start();
    for (auto &server : servers_)
        server->start();
    if (ensemble_ != nullptr)
        ensemble_->start();
    for (auto &client : clients_)
        client->start();
    if (config_.metrics != nullptr)
        startMetricsSamplers();
}

common::StatSet
Cluster::clientStats() const
{
    common::StatSet merged;
    for (const auto &client : clients_)
        merged.merge(client->stats());
    return merged;
}

common::StatSet
Cluster::serverStats() const
{
    common::StatSet merged;
    for (const auto &server : servers_)
        merged.merge(server->stats());
    return merged;
}

common::StatSet
Cluster::backendStats() const
{
    common::StatSet merged;
    for (const auto &backend : backends_)
        merged.merge(backend->stats());
    for (const auto &sftl : sftls_) {
        if (sftl != nullptr)
            merged.merge(sftl->stats());
    }
    return merged;
}

common::StatSet
Cluster::deviceStats() const
{
    common::StatSet merged;
    for (const auto &device : devices_) {
        if (device != nullptr)
            merged.merge(device->stats());
    }
    return merged;
}

common::StatSet
Cluster::clockStats() const
{
    common::StatSet merged;
    if (ensemble_ != nullptr)
        merged.merge(ensemble_->stats());
    return merged;
}

void
Cluster::resetStats()
{
    for (auto &client : clients_)
        client->stats().reset();
    for (auto &server : servers_)
        server->stats().reset();
    for (auto &backend : backends_)
        backend->stats().reset();
    for (auto &sftl : sftls_) {
        if (sftl != nullptr)
            sftl->stats().reset();
    }
    for (auto &device : devices_) {
        if (device != nullptr)
            device->stats().reset();
    }
    net_.stats().reset();
    if (ensemble_ != nullptr)
        ensemble_->stats().reset();
}

double
Cluster::avgClientSkew() const
{
    return ensemble_ == nullptr ? 0.0 : ensemble_->avgPairwiseSkew();
}

bool
Cluster::selectsInTopology(common::FaultKind kind,
                           const common::NodeSel &sel) const
{
    using Kind = common::NodeSel::Kind;
    // Indices parse non-negative; a negative one here names nothing.
    const auto below = [](std::int64_t index, std::uint64_t count) {
        return static_cast<std::uint64_t>(index) < count;
    };
    if (kind == common::FaultKind::ClockStep ||
        kind == common::FaultKind::ClockStuck ||
        kind == common::FaultKind::ClockDrift) {
        // `clock:N` and `client:N` name clock slot N, one per client.
        // Perfect clocks have none: their clock faults stay no-ops.
        return ensemble_ == nullptr ||
               (sel.kind != Kind::Node && sel.kind != Kind::Client) ||
               below(sel.index, config_.numClients);
    }
    switch (sel.kind) {
      case Kind::Node:
        return below(sel.index, servers_.size()) ||
               below(sel.index - kFirstClientNode, config_.numClients);
      case Kind::Client:
        return below(sel.index, config_.numClients);
      case Kind::Primary:
        return below(sel.index, config_.numShards);
      case Kind::Backup:
        return below(sel.index, config_.numShards) &&
               below(sel.sub, config_.replicasPerShard - 1);
      default:
        return true;
    }
}

std::vector<common::NodeId>
Cluster::resolveSel(const common::NodeSel &sel) const
{
    using Kind = common::NodeSel::Kind;
    std::vector<common::NodeId> nodes;
    switch (sel.kind) {
      case Kind::None:
        break;
      case Kind::Node:
        nodes.push_back(static_cast<common::NodeId>(sel.index));
        break;
      case Kind::Primary:
        nodes.push_back(master_.primaryOf(
            static_cast<common::ShardId>(sel.index)));
        break;
      case Kind::Backup:
        nodes.push_back(master_.backupsOf(static_cast<common::ShardId>(
            sel.index))[static_cast<std::size_t>(sel.sub)]);
        break;
      case Kind::Client:
        nodes.push_back(
            static_cast<common::NodeId>(kFirstClientNode + sel.index));
        break;
      case Kind::AllClients:
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            nodes.push_back(kFirstClientNode + i);
        break;
      case Kind::AllServers:
        for (const auto &server : servers_)
            nodes.push_back(server->nodeId());
        break;
      case Kind::All:
        for (const auto &server : servers_)
            nodes.push_back(server->nodeId());
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            nodes.push_back(kFirstClientNode + i);
        break;
    }
    return nodes;
}

std::vector<std::size_t>
Cluster::resolveClockSel(const common::NodeSel &sel) const
{
    using Kind = common::NodeSel::Kind;
    std::vector<std::size_t> clocks;
    if (ensemble_ == nullptr)
        return clocks; // Perfect clocks: clock faults are no-ops
    switch (sel.kind) {
      case Kind::Node:   // `clock:N` parses as a raw index
      case Kind::Client: // `client:N` is the same slot
        clocks.push_back(static_cast<std::size_t>(sel.index));
        break;
      case Kind::AllClients:
      case Kind::All:
        for (std::uint32_t i = 0; i < config_.numClients; ++i)
            clocks.push_back(i);
        break;
      default:
        break;
    }
    return clocks;
}

void
Cluster::applyFault(const common::FaultSpec &fault, bool start)
{
    using common::FaultKind;
    const auto deviceFor =
        [this](common::NodeId node) -> flash::SsdDevice * {
        for (std::size_t i = 0; i < servers_.size(); ++i)
            if (servers_[i]->nodeId() == node)
                return devices_[i].get();
        return nullptr;
    };

    switch (fault.kind) {
      case FaultKind::NodeCrash:
        for (common::NodeId node : resolveSel(fault.selA)) {
            net_.setNodeDown(node, start);
            if (start && fault.failover && node < kFirstClientNode) {
                // Promote the first surviving backup of the crashed
                // node's shard, mirroring what an external failure
                // detector + master would do.
                const common::ShardId shard =
                    node / config_.replicasPerShard;
                if (master_.primaryOf(shard) == node) {
                    const auto backups = master_.backupsOf(shard);
                    if (!backups.empty())
                        sim::spawn(failover(shard, backups.front()));
                }
            }
        }
        break;
      case FaultKind::LinkPartition:
        for (common::NodeId from : resolveSel(fault.selA)) {
            for (common::NodeId to : resolveSel(fault.selB)) {
                if (from == to)
                    continue;
                if (fault.oneway)
                    net_.setLinkBrokenOneWay(from, to, start);
                else
                    net_.setLinkBroken(from, to, start);
            }
        }
        break;
      case FaultKind::LinkDelay: {
        const double factor = start ? fault.magnitude : 1.0;
        if (fault.selA.kind == common::NodeSel::Kind::All &&
            fault.selB.kind == common::NodeSel::Kind::None) {
            net_.setDelayFactor(factor);
            break;
        }
        const auto a = resolveSel(fault.selA);
        const auto b = fault.selB.kind == common::NodeSel::Kind::None
                           ? resolveSel(common::NodeSel{
                                 common::NodeSel::Kind::All, 0, 0})
                           : resolveSel(fault.selB);
        for (common::NodeId from : a)
            for (common::NodeId to : b)
                if (from != to)
                    net_.setLinkDelayFactor(from, to, factor);
        break;
      }
      case FaultKind::ClockStep:
        // Healing a step is meaningless (the leap happened); the
        // duration only bounds the "fault active" tagging window.
        if (start)
            for (std::size_t c : resolveClockSel(fault.selA))
                ensemble_->driftClock(c).step(
                    static_cast<common::Duration>(fault.magnitude));
        break;
      case FaultKind::ClockStuck:
        for (std::size_t c : resolveClockSel(fault.selA))
            ensemble_->driftClock(c).setStuck(start);
        break;
      case FaultKind::ClockDrift:
        // Heal removes the runaway component (oscillator repaired).
        for (std::size_t c : resolveClockSel(fault.selA))
            ensemble_->driftClock(c).injectDriftPpm(
                start ? fault.magnitude : -fault.magnitude);
        break;
      case FaultKind::ClockMasterDown:
        if (ensemble_ != nullptr)
            ensemble_->setMasterDown(start);
        break;
      case FaultKind::SsdSlowChannel:
        for (common::NodeId node : resolveSel(fault.selA))
            if (flash::SsdDevice *dev = deviceFor(node);
                dev != nullptr && fault.channel >= 0 &&
                static_cast<std::uint32_t>(fault.channel) <
                    dev->geometry().numChannels)
                dev->setChannelLatencyFactor(
                    static_cast<std::uint32_t>(fault.channel),
                    start ? fault.magnitude : 1.0);
        break;
      case FaultKind::SsdReadRetry:
        for (common::NodeId node : resolveSel(fault.selA))
            if (flash::SsdDevice *dev = deviceFor(node))
                dev->setReadRetryStorm(
                    start ? fault.magnitude : 0.0,
                    static_cast<std::uint32_t>(
                        std::max<std::int64_t>(fault.retries, 0)));
        break;
      case FaultKind::SsdGcStorm:
        for (common::NodeId node : resolveSel(fault.selA)) {
            flash::SsdDevice *dev = deviceFor(node);
            if (dev == nullptr)
                continue;
            if (start)
                dev->startGcStorm();
            else
                dev->stopGcStorm();
        }
        break;
    }
}

sim::Task<void>
Cluster::failover(common::ShardId shard, common::NodeId new_primary)
{
    master_.failover(shard, new_primary);
    auto &promoted = primary(shard);
    std::vector<semel::Server *> backups;
    for (common::NodeId node : master_.backupsOf(shard))
        backups.push_back(directory_.at(node));
    promoted.setBackups(std::move(backups));
    co_await promoted.recoverAsPrimary();
}

} // namespace workload
