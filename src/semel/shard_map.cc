#include "semel/shard_map.hh"

#include <algorithm>

#include "common/logging.hh"

namespace semel {

std::uint64_t
ShardMap::hash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

ShardMap::ShardMap(std::uint32_t num_shards, std::uint32_t virtual_nodes)
    : numShards_(num_shards)
{
    if (num_shards == 0)
        FATAL("ShardMap needs at least one shard");
    std::vector<std::pair<std::uint64_t, ShardId>> ring;
    for (ShardId s = 0; s < num_shards; ++s) {
        for (std::uint32_t v = 0; v < virtual_nodes; ++v)
            ring.emplace_back(
                hash((static_cast<std::uint64_t>(s) << 32) | v), s);
    }
    // Equal points keep insertion order, and the last insert owns the
    // point.
    std::stable_sort(ring.begin(), ring.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (std::size_t i = 0; i < ring.size(); ++i) {
        if (i + 1 < ring.size() && ring[i + 1].first == ring[i].first)
            continue;
        points_.push_back(ring[i].first);
        owners_.push_back(ring[i].second);
    }
    // About four buckets per point: most buckets hold no point, so a
    // lookup compares against one or two.
    unsigned bits = 1;
    while (bits < 24 && (std::size_t{1} << bits) < 4 * points_.size())
        ++bits;
    shift_ = 64 - bits;
    bucketStart_.resize(std::size_t{1} << bits);
    std::uint32_t next = 0;
    for (std::size_t b = 0; b < bucketStart_.size(); ++b) {
        const std::uint64_t low = static_cast<std::uint64_t>(b) << shift_;
        while (next < points_.size() && points_[next] < low)
            ++next;
        bucketStart_[b] = next;
    }
}

ShardId
ShardMap::shardOf(Key key) const
{
    const std::uint64_t point = hash(key);
    std::size_t i = bucketStart_[point >> shift_];
    while (i < points_.size() && points_[i] < point)
        ++i;
    // Past the last point, wrap around the ring.
    return i == points_.size() ? owners_.front() : owners_[i];
}

void
Master::setReplicas(ShardId shard, std::vector<NodeId> replicas)
{
    if (replicas.empty())
        FATAL("shard " << shard << " needs at least one replica");
    if (replicas_.size() <= shard)
        replicas_.resize(shard + 1);
    replicas_[shard] = std::move(replicas);
}

void
Master::unknownShard(ShardId shard)
{
    PANIC("no replicas registered for shard " << shard);
}

std::vector<NodeId>
Master::backupsOf(ShardId shard) const
{
    const auto &all = replicasOf(shard);
    return std::vector<NodeId>(all.begin() + 1, all.end());
}

void
Master::failover(ShardId shard, NodeId new_primary)
{
    if (shard >= replicas_.size() || replicas_[shard].empty())
        PANIC("failover of unknown shard " << shard);
    auto &reps = replicas_[shard];
    auto pos = std::find(reps.begin(), reps.end(), new_primary);
    if (pos == reps.end())
        PANIC("failover target " << new_primary
                                 << " is not a replica of shard "
                                 << shard);
    reps.erase(pos);
    reps.insert(reps.begin(), new_primary);
}

} // namespace semel
