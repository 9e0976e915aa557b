#include "semel/client.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/future.hh"

namespace semel {

Client::Client(sim::Simulator &sim, net::Network &net, NodeId node,
               ClientId client_id, clocksync::Clock &clock,
               const Master &master, const Directory &directory,
               const Config &config)
    : sim_(sim),
      net_(net),
      node_(node),
      clientId_(client_id),
      clock_(clock),
      master_(master),
      directory_(directory),
      config_(config)
{
}

Server *
Client::primaryFor(Key key) const
{
    const ShardId shard = master_.shardMap().shardOf(key);
    Server *primary = directory_.at(master_.primaryOf(shard));
    if (primary == nullptr)
        PANIC("no server registered for primary of shard " << shard);
    return primary;
}

void
Client::noteAcked(Time timestamp)
{
    lastAcked_ = std::max(lastAcked_, timestamp);
}

sim::Task<std::optional<GetResponse>>
Client::get(Key key)
{
    co_return co_await getAt(key, Version{clock_.localNow(), clientId_});
}

sim::Task<std::optional<GetResponse>>
Client::getAt(Key key, Version at)
{
    stats_.counter("client.gets").inc();
    GetRequest req{key, at};
    for (std::uint32_t attempt = 0; attempt <= config_.maxRetries;
         ++attempt) {
        Server *primary = primaryFor(key); // re-resolve across failover
        auto resp = co_await net_.callTyped<GetResponse>(
            node_, primary->nodeId(), primary->handleGet(req));
        if (resp.has_value()) {
            noteAcked(at.timestamp);
            co_return resp;
        }
        stats_.counter("client.get_retries").inc();
    }
    co_return std::nullopt;
}

sim::Task<PutResult>
Client::put(Key key, Value value)
{
    stats_.counter("client.puts").inc();
    // A raw KV put outside any transaction starts its own trace so the
    // server/replication spans it triggers still group together.
    common::TraceContext ctx = common::currentTraceContext();
    if (ctx.traceId == 0)
        ctx.traceId = trace_.newTraceId();
    common::TraceContextScope ctxScope(ctx);
    common::ScopedSpan span(trace_, "semel.client.put");
    span.setArg(static_cast<std::int64_t>(key));
    // The version is chosen once; retries resend the same stamp so the
    // server can deduplicate (idempotence, section 3.3).
    const Version version{clock_.localNow(), clientId_};
    PutRequest req{key, std::move(value), version};
    for (std::uint32_t attempt = 0; attempt <= config_.maxRetries;
         ++attempt) {
        Server *primary = primaryFor(key);
        auto resp = co_await net_.callTyped<PutResponse>(
            node_, primary->nodeId(), primary->handlePut(req));
        if (resp.has_value()) {
            noteAcked(version.timestamp);
            span.setTag(resp->result == PutResult::Ok ? "ok" : "rejected");
            co_return resp->result;
        }
        stats_.counter("client.put_retries").inc();
    }
    span.setTag("failed");
    co_return PutResult::Failed;
}

sim::Task<PutResult>
Client::del(Key key)
{
    stats_.counter("client.deletes").inc();
    const Version version{clock_.localNow(), clientId_};
    for (std::uint32_t attempt = 0; attempt <= config_.maxRetries;
         ++attempt) {
        Server *primary = primaryFor(key);
        auto resp = co_await net_.callTyped<PutResponse>(
            node_, primary->nodeId(),
            primary->handleDelete(key, version));
        if (resp.has_value()) {
            noteAcked(version.timestamp);
            co_return resp->result;
        }
    }
    co_return PutResult::Failed;
}

sim::Task<void>
Client::watermarkLoop()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, config_.watermarkPeriod);
        const Time report = lastAcked_;
        if (report == 0)
            continue;
        const Time done = doneBelow();
        for (const auto &[node, server] : directory_.all()) {
            Server *srv = server;
            const ClientId cid = clientId_;
            net_.send(node_, node, [srv, cid, report, done] {
                srv->handleWatermarkReport(cid, report, done);
            });
        }
    }
}

void
Client::start()
{
    sim::spawn(watermarkLoop());
}

} // namespace semel
