/**
 * @file
 * Key -> shard -> replica-set mapping (paper section 3): "The client
 * library coordinates with a global master to map each key to a data
 * shard and to the shard's primary replica using standard techniques
 * (e.g., consistent hashing)."
 *
 * ShardMap implements a consistent-hash ring with virtual nodes over
 * the shards; the Master maintains the replica sets (first replica is
 * the primary) and performs failover by promoting a backup. Clients
 * hold a reference to the master's map — master lookups are cheap and
 * off the data path, as with a ZooKeeper-backed directory.
 */

#ifndef SEMEL_SHARD_MAP_HH
#define SEMEL_SHARD_MAP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace semel {

using common::Key;
using common::NodeId;
using common::ShardId;

/** Consistent-hash ring: key -> shard. */
class ShardMap
{
  public:
    explicit ShardMap(std::uint32_t num_shards,
                      std::uint32_t virtual_nodes = 64);

    /** The shard of the first ring point >= hash(key), wrapping to
     *  the first point. */
    ShardId shardOf(Key key) const;
    std::uint32_t numShards() const { return numShards_; }

    /** The ring's hash, of keys and of (shard << 32 | vnode) points. */
    static std::uint64_t hash(std::uint64_t x);

  private:
    std::uint32_t numShards_;
    /** Ring positions, ascending, and the shard owning each. */
    std::vector<std::uint64_t> points_;
    std::vector<ShardId> owners_;
    /** Entry b: index of the first point >= b << shift_, so a lookup
     *  starts at its hash's bucket and scans that bucket's points. */
    std::vector<std::uint32_t> bucketStart_;
    unsigned shift_ = 0;
};

/** The global master: shard -> replica set (element 0 is primary). */
class Master
{
  public:
    explicit Master(const ShardMap &map) : map_(map) {}

    const ShardMap &shardMap() const { return map_; }

    void setReplicas(ShardId shard, std::vector<NodeId> replicas);

    NodeId
    primaryOf(ShardId shard) const
    {
        return replicasOf(shard).front();
    }

    const std::vector<NodeId> &
    replicasOf(ShardId shard) const
    {
        if (shard >= replicas_.size() || replicas_[shard].empty())
            [[unlikely]] unknownShard(shard);
        return replicas_[shard];
    }

    /** Backups of a shard (replicas minus the primary). */
    std::vector<NodeId> backupsOf(ShardId shard) const;

    /**
     * Fail over: promote @p new_primary (must be a current replica) to
     * the head of the replica list.
     */
    void failover(ShardId shard, NodeId new_primary);

  private:
    [[noreturn]] static void unknownShard(ShardId shard);

    const ShardMap &map_;
    /** Indexed by ShardId; empty for an unregistered shard. */
    std::vector<std::vector<NodeId>> replicas_;
};

} // namespace semel

#endif // SEMEL_SHARD_MAP_HH
