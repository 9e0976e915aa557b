#include "semel/server.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/logging.hh"
#include "sim/future.hh"
#include "sim/sync.hh"

namespace semel {

Server::Server(sim::Simulator &sim, net::Network &net, NodeId id,
               ShardId shard, ftl::KvBackend &backend,
               const Config &config)
    : sim_(sim),
      net_(net),
      id_(id),
      shard_(shard),
      backend_(backend),
      config_(config)
{
    cpu_ = std::make_unique<sim::Semaphore>(sim, config.cpuCores);
}

sim::Task<void>
Server::chargeCpu()
{
    if (config_.requestCpuTime <= 0)
        co_return;
    co_await cpu_->acquire();
    co_await sim::sleepFor(sim_, config_.requestCpuTime);
    cpu_->release();
}

void
Server::setBackups(std::vector<Server *> backups)
{
    backups_ = std::move(backups);
}

void
Server::reserveKeys(std::uint64_t keys)
{
    backend_.reserveKeys(keys);
    keys_.reserve(keys);
}

Version
Server::latestCommitted(Key key) const
{
    const KeySlot *slot = keys_.find(key);
    return slot == nullptr ? Version::zero() : slot->latestCommitted;
}

KeySlot &
Server::noteCommitted(Key key, Version version)
{
    KeySlot &slot = keys_.getOrCreate(key);
    slot.latestCommitted = std::max(slot.latestCommitted, version);
    return slot;
}

sim::Task<GetResponse>
Server::handleGet(GetRequest request)
{
    stats_.counter("semel.gets").inc();
    co_await chargeCpu();
    const ftl::GetResult r = co_await backend_.get(request.key, request.at);
    GetResponse resp;
    resp.found = r.found;
    resp.version = r.version;
    resp.value = r.value;
    co_return resp;
}

sim::Task<bool>
Server::replicateToBackups(ReplicateWrite msg)
{
    if (backups_.empty())
        co_return true;
    if (config_.backupAcksNeeded > backups_.size())
        PANIC("quorum " << config_.backupAcksNeeded << " > "
                        << backups_.size() << " backups");

    common::ScopedSpan span(trace_, "semel.repl.write");
    span.setArg(static_cast<std::int64_t>(backups_.size()));
    const Time started = sim_.now();
    auto quorum = std::make_shared<sim::Quorum>(
        sim_, config_.backupAcksNeeded);
    for (Server *backup : backups_) {
        sim::spawn([](Server *self, Server *backup, ReplicateWrite m,
                      std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
            auto ok = co_await self->net_.callTyped<bool>(
                self->id_, backup->nodeId(),
                backup->handleReplicateWrite(m));
            if (ok.has_value() && *ok)
                q->arrive();
        }(this, backup, msg, quorum));
    }
    // Inconsistent replication: no ordering, just a quorum of acks.
    co_await quorum->wait();
    stats_.histogram("semel.repl_wait").record(sim_.now() - started);
    co_return true;
}

sim::Task<PutResponse>
Server::handlePut(PutRequest request)
{
    stats_.counter("semel.puts").inc();
    common::ScopedSpan span(trace_, "semel.server.put");
    span.setArg(static_cast<std::int64_t>(backups_.size()));
    co_await chargeCpu();
    PutResponse resp;

    const Version latest = latestCommitted(request.key);
    if (request.version == latest && !latest.isZero()) {
        // Retransmitted request we already executed: repeat the reply
        // (idempotence, section 3.3).
        stats_.counter("semel.duplicate_puts").inc();
        resp.result = PutResult::Ok;
        span.setTag("duplicate");
        co_return resp;
    }
    if (request.version < latest) {
        // Stale write: at-most-once semantics reject it.
        stats_.counter("semel.stale_rejects").inc();
        resp.result = PutResult::StaleRejected;
        span.setTag("stale");
        co_return resp;
    }

    // Replicate and persist concurrently; commit requires local
    // durability plus f backup acks (majority of 2f+1).
    ReplicateWrite msg{request.key, request.value, request.version};
    auto replication = std::make_shared<sim::Quorum>(sim_, 1);
    sim::spawn([](Server *self, ReplicateWrite m,
                  std::shared_ptr<sim::Quorum> q) -> sim::Task<void> {
        co_await self->replicateToBackups(m);
        q->arrive();
    }(this, msg, replication));

    const ftl::PutStatus status = co_await backend_.put(
        request.key, request.value, request.version);
    if (status == ftl::PutStatus::StaleVersion) {
        // Single-version backends can lose the race to a newer write
        // that slipped in while this one was queued.
        resp.result = PutResult::StaleRejected;
        span.setTag("stale");
        co_return resp;
    }
    co_await replication->wait();

    noteCommitted(request.key, request.version);
    resp.result = PutResult::Ok;
    // "ok" after the replication quorum: the invariant monitor checks
    // the semel.repl.write span ended before this ack.
    span.setTag("ok");
    co_return resp;
}

sim::Task<PutResponse>
Server::handleDelete(Key key, Version version)
{
    stats_.counter("semel.deletes").inc();
    PutResponse resp;
    const Version latest = latestCommitted(key);
    if (version < latest) {
        resp.result = PutResult::StaleRejected;
        co_return resp;
    }
    // Propagate the delete to backups as a tombstone write.
    for (Server *backup : backups_) {
        net_.send(id_, backup->nodeId(), [backup, key, version] {
            sim::spawn([](Server *b, Key k, Version v) -> sim::Task<void> {
                co_await b->backend().erase(k, v);
            }(backup, key, version));
        });
    }
    co_await backend_.erase(key, version);
    keys_.erase(key);
    resp.result = PutResult::Ok;
    co_return resp;
}

sim::Task<bool>
Server::handleReplicateWrite(ReplicateWrite msg)
{
    stats_.counter("semel.replica_writes").inc();
    // Unordered apply: multi-version backends insert the stamp at its
    // sorted position; single-version backends keep whichever stamp is
    // newest. Either way the acknowledgement is safe — ordering is
    // reconstructed from the stamps.
    (void)co_await backend_.put(msg.key, msg.value, msg.version);
    noteCommitted(msg.key, msg.version);
    co_return true;
}

void
Server::handleWatermarkReport(ClientId client, Time timestamp,
                              Time done_below)
{
    ClientReport &latest = clientReports_[client];
    latest.acked = std::max(latest.acked, timestamp);
    latest.doneBelow = std::max(latest.doneBelow, done_below);
    if (config_.expectedClients == 0 ||
        clientReports_.size() < config_.expectedClients)
        return;
    Time min_ts = std::numeric_limits<Time>::max();
    Time min_done = std::numeric_limits<Time>::max();
    for (const auto &[c, report] : clientReports_) {
        min_ts = std::min(min_ts, report.acked);
        min_done = std::min(min_done, report.doneBelow);
    }
    decidedBelow_ = std::max(decidedBelow_, min_done);
    if (min_ts > watermark_) {
        watermark_ = min_ts;
        backend_.setWatermark(watermark_);
        stats_.counter("semel.watermark_advances").inc();
    }
}

} // namespace semel
