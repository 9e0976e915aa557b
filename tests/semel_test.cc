/**
 * @file
 * SEMEL integration tests: sharding, linearizable puts/gets through
 * the simulated network, inconsistent replication, idempotent
 * retransmissions, stale-write rejection, and watermark propagation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "clocksync/clock.hh"
#include "ftl/dram.hh"
#include "net/network.hh"
#include "semel/client.hh"
#include "semel/server.hh"
#include "semel/shard_map.hh"
#include "sim/simulator.hh"

using namespace semel;
using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;
using common::Key;
using common::Rng;
using common::Version;

TEST(ShardMap, CoversAllShards)
{
    ShardMap map(4);
    std::set<ShardId> seen;
    for (Key k = 0; k < 10000; ++k)
        seen.insert(map.shardOf(k));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardMap, Deterministic)
{
    ShardMap a(8), b(8);
    for (Key k = 0; k < 1000; ++k)
        EXPECT_EQ(a.shardOf(k), b.shardOf(k));
}

TEST(ShardMap, RoughlyBalanced)
{
    ShardMap map(4);
    std::vector<int> counts(4, 0);
    for (Key k = 0; k < 40000; ++k)
        ++counts[map.shardOf(k)];
    for (int c : counts) {
        EXPECT_GT(c, 4000);  // no shard starved
        EXPECT_LT(c, 25000); // no shard dominates
    }
}

namespace {

/** Inverse of ShardMap::hash (an xor-shift/multiply bijection), so a
 *  test can pick keys that hash to chosen ring positions. */
std::uint64_t
unhash(std::uint64_t x)
{
    const auto inverse = [](std::uint64_t c) {
        std::uint64_t inv = c; // Newton: correct bits double each step
        for (int i = 0; i < 6; ++i)
            inv *= 2 - c * inv;
        return inv;
    };
    x ^= x >> 33;
    x *= inverse(0xc4ceb9fe1a85ec53ULL);
    x ^= x >> 33;
    x *= inverse(0xff51afd7ed558ccdULL);
    x ^= x >> 33;
    return x;
}

} // namespace

TEST(ShardMap, FlatRingMatchesReferenceRing)
{
    constexpr std::uint32_t kVirtualNodes = 64;
    for (std::uint32_t shards = 1; shards <= 16; ++shards) {
        // The reference: the ring as a std::map, each point owned by
        // its last insert, looked up with lower_bound and wrapped.
        std::map<std::uint64_t, ShardId> ring;
        for (ShardId s = 0; s < shards; ++s)
            for (std::uint32_t v = 0; v < kVirtualNodes; ++v)
                ring[ShardMap::hash((std::uint64_t{s} << 32) | v)] = s;
        const auto reference = [&ring](Key key) {
            auto it = ring.lower_bound(ShardMap::hash(key));
            return it == ring.end() ? ring.begin()->second : it->second;
        };
        const ShardMap map(shards, kVirtualNodes);

        std::vector<Key> keys;
        // Keys hashing onto, just below and just past every point, and
        // at both ends of the hash range.
        for (const auto &[point, owner] : ring) {
            ASSERT_EQ(ShardMap::hash(unhash(point)), point);
            keys.push_back(unhash(point));
            keys.push_back(unhash(point - 1));
            keys.push_back(unhash(point + 1));
        }
        keys.push_back(unhash(0));
        keys.push_back(unhash(~std::uint64_t{0}));
        Rng rng(shards);
        for (std::size_t i = 0; i < 1'000'000; ++i)
            keys.push_back(i % 2 == 0 ? i : rng.next());

        const std::uint64_t last = ring.rbegin()->first;
        std::size_t wrapped = 0;
        std::size_t mismatches = 0;
        for (Key key : keys) {
            wrapped += ShardMap::hash(key) > last;
            mismatches += map.shardOf(key) != reference(key);
        }
        EXPECT_EQ(mismatches, 0u) << shards << " shards";
        EXPECT_GT(wrapped, 1u) << shards << " shards";
    }
}

TEST(Master, FailoverPromotesReplica)
{
    ShardMap map(1);
    Master master(map);
    master.setReplicas(0, {10, 11, 12});
    EXPECT_EQ(master.primaryOf(0), 10u);
    master.failover(0, 12);
    EXPECT_EQ(master.primaryOf(0), 12u);
    const auto backups = master.backupsOf(0);
    EXPECT_EQ(backups.size(), 2u);
    EXPECT_EQ(backups[0], 10u);
}

TEST(Semel, BackupQuorumIsHalfTheBackupsAtLeastOne)
{
    const std::uint32_t expected[] = {0, 1, 1, 1, 2, 2, 3};
    for (std::size_t backups = 0; backups < std::size(expected); ++backups)
        EXPECT_EQ(backupQuorum(backups), expected[backups]) << backups;
    // The rule a cluster once set from its replica count r, whose
    // primaries have r - 1 backups.
    for (std::uint32_t r = 1; r <= 8; ++r) {
        std::uint32_t from_replicas = r > 1 ? (r - 1) / 2 : 0;
        if (r > 1 && from_replicas == 0)
            from_replicas = 1;
        EXPECT_EQ(backupQuorum(r - 1), from_replicas) << r;
    }
}

namespace {

/** Hand-wired 1-shard, 3-replica SEMEL deployment on DRAM. */
struct SemelRig
{
    sim::Simulator sim;
    Rng rng{42};
    net::Network net{sim, net::NetConfig{}, Rng(43)};
    ShardMap map{1};
    Master master{map};
    Directory directory;
    std::vector<std::unique_ptr<ftl::DramBackend>> backends;
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::unique_ptr<clocksync::PerfectClock>> clocks;
    std::vector<std::unique_ptr<Client>> clients;

    explicit SemelRig(std::uint32_t replicas = 3,
                      std::uint32_t num_clients = 2)
    {
        std::vector<common::NodeId> nodes;
        for (std::uint32_t r = 0; r < replicas; ++r) {
            backends.push_back(std::make_unique<ftl::DramBackend>(sim));
            servers.push_back(std::make_unique<Server>(
                sim, net, r, 0, *backends.back(), num_clients));
            directory.add(servers.back().get());
            nodes.push_back(r);
        }
        master.setReplicas(0, nodes);
        std::vector<Server *> backups;
        for (std::uint32_t r = 1; r < replicas; ++r)
            backups.push_back(servers[r].get());
        servers[0]->setBackups(backups);

        for (std::uint32_t c = 0; c < num_clients; ++c) {
            clocks.push_back(
                std::make_unique<clocksync::PerfectClock>(sim));
            clients.push_back(std::make_unique<Client>(
                sim, net, 1000 + c, c + 1, *clocks.back(), master,
                directory));
        }
    }
};

} // namespace

TEST(Semel, PutGetRoundTrip)
{
    SemelRig rig;
    bool ok = false;
    sim::spawn([](SemelRig *rig, bool *ok) -> sim::Task<void> {
        auto put = co_await rig->clients[0]->put(5, "hello");
        EXPECT_EQ(put, PutResult::Ok);
        auto got = co_await rig->clients[0]->get(5);
        *ok = got.has_value() && got->found && got->value == "hello";
    }(&rig, &ok));
    rig.sim.run();
    EXPECT_TRUE(ok);
}

TEST(Semel, GetMissingKey)
{
    SemelRig rig;
    bool ran = false;
    sim::spawn([](SemelRig *rig, bool *ran) -> sim::Task<void> {
        auto got = co_await rig->clients[0]->get(99);
        EXPECT_TRUE(got.has_value());
        EXPECT_FALSE(got->found);
        *ran = true;
    }(&rig, &ran));
    rig.sim.run();
    EXPECT_TRUE(ran);
}

TEST(Semel, WritesReplicateToBackups)
{
    SemelRig rig;
    sim::spawn([](SemelRig *rig) -> sim::Task<void> {
        (void)co_await rig->clients[0]->put(7, "replicated");
    }(&rig));
    rig.sim.run();
    // With one-of-two quorum both backups usually receive it; at
    // minimum the write is applied on the primary plus one backup.
    int holders = 0;
    for (auto &backend : rig.backends) {
        bool found = false;
        sim::spawn([](ftl::DramBackend *b, bool *found) -> sim::Task<void> {
            auto r = co_await b->getLatest(7);
            *found = r.found;
        }(backend.get(), &found));
        rig.sim.run();
        holders += found;
    }
    EXPECT_GE(holders, 2);
}

TEST(Semel, SurvivesOneBackupCrash)
{
    SemelRig rig;
    rig.net.setNodeDown(2, true); // crash one backup
    PutResult result{};
    sim::spawn([](SemelRig *rig, PutResult *result) -> sim::Task<void> {
        *result = co_await rig->clients[0]->put(3, "quorum");
    }(&rig, &result));
    rig.sim.run();
    EXPECT_EQ(result, PutResult::Ok);
}

TEST(Semel, StaleWriteRejected)
{
    SemelRig rig;
    PutResult second{};
    sim::spawn([](SemelRig *rig, PutResult *second) -> sim::Task<void> {
        // Let the clock advance past the forged timestamp below.
        co_await sim::sleepFor(rig->sim, kMillisecond);
        // Client 0 writes at its current clock; then we forge an older
        // version directly at the primary.
        (void)co_await rig->clients[0]->put(1, "newer");
        const Version stale{1, 9}; // far in the past
        PutRequest req{1, "older", stale};
        auto resp = co_await rig->servers[0]->handlePut(req);
        *second = resp.result;
    }(&rig, &second));
    rig.sim.run();
    EXPECT_EQ(second, PutResult::StaleRejected);
}

TEST(Semel, DuplicatePutIsIdempotent)
{
    SemelRig rig;
    PutResult first{}, replay{};
    sim::spawn([](SemelRig *rig, PutResult *first,
                  PutResult *replay) -> sim::Task<void> {
        const Version v{rig->clients[0]->now(), 1};
        PutRequest req{4, "once", v};
        auto r1 = co_await rig->servers[0]->handlePut(req);
        auto r2 = co_await rig->servers[0]->handlePut(req); // retransmit
        *first = r1.result;
        *replay = r2.result;
    }(&rig, &first, &replay));
    rig.sim.run();
    EXPECT_EQ(first, PutResult::Ok);
    EXPECT_EQ(replay, PutResult::Ok);
    EXPECT_EQ(rig.servers[0]->stats().counterValue(
                  "semel.duplicate_puts"),
              1u);
}

TEST(Semel, ConcurrentWritersConverge)
{
    SemelRig rig;
    // Two clients hammer the same key; the winner must be the highest
    // version, everywhere the value is the winner's.
    sim::spawn([](SemelRig *rig) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i)
            (void)co_await rig->clients[0]->put(8, "from0");
    }(&rig));
    sim::spawn([](SemelRig *rig) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i)
            (void)co_await rig->clients[1]->put(8, "from1");
    }(&rig));
    rig.sim.run();

    std::optional<GetResponse> got;
    sim::spawn([](SemelRig *rig,
                  std::optional<GetResponse> *got) -> sim::Task<void> {
        *got = co_await rig->clients[0]->get(8);
    }(&rig, &got));
    rig.sim.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->found);
    EXPECT_EQ(got->version, rig.servers[0]->latestCommitted(8));
}

TEST(Semel, WatermarkAdvancesAfterAllClientsReport)
{
    SemelRig rig;
    // Both clients do work, then their broadcast loops report.
    for (auto &client : rig.clients)
        client->start();
    sim::spawn([](SemelRig *rig) -> sim::Task<void> {
        // A put at t=0 would carry timestamp 0, which reads as "no
        // acknowledged work yet" — advance the clock first.
        co_await sim::sleepFor(rig->sim, kMillisecond);
        (void)co_await rig->clients[0]->put(1, "a");
        (void)co_await rig->clients[1]->put(2, "b");
    }(&rig));
    rig.sim.runFor(kSecond);
    EXPECT_GT(rig.servers[0]->watermark(), 0);
    EXPECT_GT(rig.servers[0]->stats().counterValue(
                  "semel.watermark_advances"),
              0u);
}

TEST(Semel, WatermarkWaitsForSilentClient)
{
    SemelRig rig;
    // Only client 0 works and reports; client 1 never does, so the
    // watermark must not advance (its future reads could be older).
    rig.clients[0]->start();
    sim::spawn([](SemelRig *rig) -> sim::Task<void> {
        (void)co_await rig->clients[0]->put(1, "a");
    }(&rig));
    rig.sim.runFor(kSecond);
    EXPECT_EQ(rig.servers[0]->watermark(), 0);
}

TEST(Semel, RetriesThroughTransientPartition)
{
    SemelRig rig;
    // Cut client 0 <-> primary for a moment; the first attempt times
    // out but a retry after healing succeeds.
    rig.net.setLinkBroken(1000, 0, true);
    rig.sim.schedule(30 * kMillisecond,
                     [&] { rig.net.setLinkBroken(1000, 0, false); });
    PutResult result{};
    sim::spawn([](SemelRig *rig, PutResult *result) -> sim::Task<void> {
        *result = co_await rig->clients[0]->put(9, "eventually");
    }(&rig, &result));
    rig.sim.run();
    EXPECT_EQ(result, PutResult::Ok);
}

TEST(Semel, AtMostOnceRemembersNewestCommittedStamp)
{
    // Storage is put-only, so a key's newest-committed stamp is never
    // forgotten: every older write is rejected for good, and a repeat
    // of the newest is acknowledged again.
    SemelRig rig;
    std::vector<PutResult> results;
    sim::spawn([](SemelRig *rig,
                  std::vector<PutResult> *out) -> sim::Task<void> {
        Server &primary = *rig->servers[0];
        const auto put = [&](Version v) {
            return primary.handlePut(PutRequest{5, "x", v});
        };
        out->push_back((co_await put(Version{100, 1})).result);
        out->push_back((co_await put(Version{50, 1})).result);
        EXPECT_EQ(primary.latestCommitted(5), (Version{100, 1}));
        out->push_back((co_await put(Version{150, 1})).result);
        out->push_back((co_await put(Version{150, 1})).result); // dup
        out->push_back((co_await put(Version{120, 1})).result);
        EXPECT_EQ(primary.latestCommitted(5), (Version{150, 1}));
        EXPECT_NE(primary.keyTable().find(5), nullptr);
    }(&rig, &results));
    rig.sim.run();
    const std::vector<PutResult> want = {
        PutResult::Ok, PutResult::StaleRejected, PutResult::Ok,
        PutResult::Ok, PutResult::StaleRejected};
    EXPECT_EQ(results, want);
    EXPECT_EQ(rig.servers[0]->stats().counterValue("semel.duplicate_puts"),
              1u);
}
