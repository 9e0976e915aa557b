/**
 * @file
 * SEMEL storage server (paper section 3).
 *
 * A server is one replica of one shard. The primary services client
 * gets and puts; writes are replicated to the backups with
 * *inconsistent replication* (section 3.2): each backup applies and
 * acknowledges a timestamped write as soon as it receives it —
 * ordering is explicit in the version stamps, so no operation log or
 * sequencing is needed — and the primary acknowledges the client once
 * the write is locally durable and f of the 2f backups have
 * acknowledged (majority of 2f+1 replicas).
 *
 * Linearizability (section 3.3): the primary rejects writes whose
 * version stamp is not newer than the key's latest committed stamp
 * (at-most-once), repeats its earlier response for exact duplicates
 * (idempotence), and serves reads from the named snapshot version.
 *
 * Watermarks (section 3.1): clients periodically report the timestamp
 * of their last acknowledged operation; once every expected client has
 * reported, the minimum becomes the GC watermark handed to the
 * backend. The same report carries a second stamp, below which the
 * client has no transaction whose decisions are still in flight; its
 * minimum bounds a MILANA server's transaction-table truncation.
 */

#ifndef SEMEL_SERVER_HH
#define SEMEL_SERVER_HH

#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "net/network.hh"
#include "semel/messages.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace semel {

using common::NodeId;

/**
 * One key's DRAM state on a server, one ftl::KeyTable slot (48 B):
 *
 *     Key      key              8B  } table bookkeeping
 *     u32      dist             4B  }
 *     u32      flags            4B  kReady | kPrepared
 *     Version  latestCommitted 16B  newest committed stamp
 *     Version  latestRead      16B  newest ts_begin that read the key
 *
 * SEMEL's at-most-once checks read latestCommitted alone. A MILANA
 * primary (paper section 4.1) trusts latestCommitted for validation
 * only once kReady is set — by the bulk load or by a rebuild from the
 * stamps in storage — and keeps the prepared version and its owner in
 * a side table, consulted only while kPrepared is set. Like the
 * TicToc TID word, the flag and the timestamps share one slot, so one
 * cache line answers Algorithm 1's checks for a key.
 */
struct KeySlot
{
    static constexpr std::uint32_t kReady = 1u << 0;
    static constexpr std::uint32_t kPrepared = 1u << 1;

    Key key;
    std::uint32_t dist;
    std::uint32_t flags;
    Version latestCommitted;
    Version latestRead;
};

static_assert(sizeof(KeySlot) <= 48, "KeySlot must stay within 48 B");

using KeyTable = ftl::KeyTable<KeySlot>;

class Server
{
  public:
    struct Config
    {
        /** Backup acknowledgements required before a write commits
         *  (f, out of 2f backups). */
        std::uint32_t backupAcksNeeded = 1;
        /** Number of clients that must report before the watermark
         *  advances (0 disables watermark GC). */
        std::uint32_t expectedClients = 0;
        /** Request-processing CPU model: cores available to the
         *  server process... */
        std::uint32_t cpuCores = 8;
        /** ...and CPU time consumed per request handled. Bounds the
         *  server's request rate at cpuCores / requestCpuTime. */
        common::Duration requestCpuTime = 100 * common::kMicrosecond;
    };

    Server(sim::Simulator &sim, net::Network &net, NodeId id,
           ShardId shard, ftl::KvBackend &backend, const Config &config);
    virtual ~Server() = default;

    NodeId nodeId() const { return id_; }
    ShardId shard() const { return shard_; }
    ftl::KvBackend &backend() { return backend_; }

    /** Wire the backup replicas this server replicates to (primary). */
    void setBackups(std::vector<Server *> backups);
    const std::vector<Server *> &backups() const { return backups_; }

    /**
     * Pre-size the per-key DRAM state and the backend's mapping table
     * for a bulk load of @p keys distinct keys, so populate performs
     * zero rehashes.
     */
    virtual void reserveKeys(std::uint64_t keys);

    // -------------------------------------------------- RPC handlers

    /** Read the youngest version with stamp <= request.at. */
    virtual sim::Task<GetResponse> handleGet(GetRequest request);

    /** Timestamped write: validate freshness, persist, replicate. */
    virtual sim::Task<PutResponse> handlePut(PutRequest request);

    /** Delete all versions of a key (propagated like a write). */
    sim::Task<PutResponse> handleDelete(Key key, Version version);

    /** Backup side: apply one replicated write, in any order. */
    sim::Task<bool> handleReplicateWrite(ReplicateWrite msg);

    /** Client watermark report (one-way): the client's last
     *  acknowledged stamp and its Client::doneBelow(). */
    void handleWatermarkReport(ClientId client, Time timestamp,
                               Time done_below);

    // ---------------------------------------------------- inspection

    /** Latest committed version stamp of a key (zero if none). */
    Version latestCommitted(Key key) const;

    /** The per-key DRAM state (inspection). */
    const KeyTable &keyTable() const { return keys_; }

    Time watermark() const { return watermark_; }

    /** Minimum of the expected clients' doneBelow reports (0 until all
     *  have reported): every transaction stamped below it has had its
     *  decision delivered to every participant primary. */
    Time decidedBelow() const { return decidedBelow_; }

    common::StatSet &stats() { return stats_; }

    /** Trace emission handle; disabled until the cluster attaches it. */
    common::Tracer &tracer() { return trace_; }

  protected:
    /** Charge one request's CPU cost (queueing on the core pool). */
    sim::Task<void> chargeCpu();

    /**
     * Replicate a write to the backups and wait for the configured
     * quorum of acknowledgements. Returns true on quorum.
     */
    sim::Task<bool> replicateToBackups(ReplicateWrite msg);

    /** Raise a key's newest committed stamp to @p version; returns
     *  its slot (valid until the next insert into keys_). */
    KeySlot &noteCommitted(Key key, Version version);

    sim::Simulator &sim_;
    net::Network &net_;
    NodeId id_;
    ShardId shard_;
    ftl::KvBackend &backend_;
    Config config_;
    std::vector<Server *> backups_;

    /** DRAM: per-key state (see KeySlot). */
    KeyTable keys_;

    /** Core pool for the request-processing cost model. */
    std::unique_ptr<sim::Semaphore> cpu_;

    struct ClientReport
    {
        Time acked = 0;
        Time doneBelow = 0;
    };
    /** Latest report per client; min over all = watermark. */
    std::map<ClientId, ClientReport> clientReports_;
    Time watermark_ = 0;
    Time decidedBelow_ = 0;

    common::StatSet stats_;
    common::Tracer trace_;
};

/** NodeId -> Server lookup used by clients and the cluster builder. */
class Directory
{
  public:
    void
    add(Server *server)
    {
        servers_[server->nodeId()] = server;
    }

    Server *
    at(NodeId id) const
    {
        auto it = servers_.find(id);
        return it == servers_.end() ? nullptr : it->second;
    }

    const std::map<NodeId, Server *> &all() const { return servers_; }

  private:
    std::map<NodeId, Server *> servers_;
};

} // namespace semel

#endif // SEMEL_SERVER_HH
