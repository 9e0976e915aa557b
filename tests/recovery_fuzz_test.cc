/**
 * @file
 * Randomized failover fuzzing: bank-style transfer transactions run
 * while a shard primary is killed at a random instant and a backup is
 * promoted (Algorithm 2 + CTP + leases). After recovery the total
 * balance — the serializability invariant — must be intact, and the
 * system must still commit new transactions.
 *
 * The crash is delivered through a ChaosEngine schedule generated
 * from the seed (`at <T>ms crash primary:<S> failover`), so the fuzz
 * exercises the same injection path as `milana-sim --chaos` and the
 * chaos sweep. Parameterized over seeds so each instance crashes at a
 * different point in the protocol (mid-prepare, mid-decision,
 * mid-replication, idle).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/chaos.hh"
#include "milana/client.hh"
#include "workload/cluster.hh"

using namespace workload;
using common::Key;
using common::kMillisecond;
using common::kSecond;
using milana::CommitResult;

namespace {

constexpr Key kAccounts = 24;
constexpr int kInitial = 100;

/** Balance parser tolerant of the pre-setup "init" marker. */
int
balanceOf(const std::string &value, bool *ok)
{
    if (value.empty() || value == "init") {
        *ok = false;
        return 0;
    }
    return std::stoi(value);
}

sim::Task<void>
transferLoop(Cluster &cluster, std::uint32_t client_index,
             std::uint64_t seed, const bool *halt)
{
    auto &client = cluster.client(client_index);
    common::Rng rng(seed);
    while (!*halt && !cluster.sim().stopRequested()) {
        const Key from = rng.nextBounded(kAccounts);
        const Key to = (from + 1 + rng.nextBounded(kAccounts - 1)) %
                       kAccounts;
        auto txn = client.beginTransaction();
        auto rf = co_await client.get(txn, from);
        auto rt = co_await client.get(txn, to);
        if (!rf.ok || !rt.ok || !rf.found || !rt.found) {
            client.abortTransaction(txn);
            continue;
        }
        bool parsed = true;
        const int bf = balanceOf(rf.value, &parsed);
        const int bt = balanceOf(rt.value, &parsed);
        if (!parsed) {
            client.abortTransaction(txn);
            continue;
        }
        const int amount = static_cast<int>(rng.nextBounded(10)) + 1;
        if (bf < amount) {
            client.abortTransaction(txn);
            continue;
        }
        client.put(txn, from, std::to_string(bf - amount));
        client.put(txn, to, std::to_string(bt + amount));
        (void)co_await client.commitTransaction(txn);
    }
}

} // namespace

class RecoveryFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RecoveryFuzz, InvariantSurvivesRandomCrashPoint)
{
    const std::uint64_t seed = GetParam();
    common::Rng rng(seed);

    // Seed-derived fault schedule: kill shard (seed % 2)'s primary at
    // a random instant once transfer traffic is flowing (the setup
    // transaction finishes by ~60 ms), promoting the first surviving
    // backup. Any protocol phase may be in flight at the crash.
    const common::ShardId shard = static_cast<common::ShardId>(seed % 2);
    const std::uint64_t crashMs = 70 + rng.nextBounded(200);
    const std::string schedule = "at " + std::to_string(crashMs) +
                                 "ms crash primary:" +
                                 std::to_string(shard) + " failover";
    common::ChaosEngine chaos(seed);
    std::string err;
    ASSERT_TRUE(chaos.parse(schedule, &err)) << err;

    ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.replicasPerShard = 3;
    cfg.numClients = 4;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::PtpSw;
    cfg.numKeys = 1000;
    cfg.seed = seed;
    cfg.chaos = &chaos;
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    cluster.armChaos();

    bool scenario_done = false;
    bool halt_transfers = false;
    sim::spawn([](Cluster *cluster, std::uint64_t seed, bool *halt,
                  bool *done) -> sim::Task<void> {
        auto &setup = cluster->client(0);
        // Let the disciplined clocks advance past the bulk-load stamp:
        // a client whose clock lags true time would otherwise mint a
        // commit timestamp below the loaded versions and (correctly)
        // be rejected.
        co_await sim::sleepFor(cluster->sim(), 10 * kMillisecond);
        CommitResult ir = CommitResult::Aborted;
        for (int attempt = 0;
             attempt < 5 && ir != CommitResult::Committed; ++attempt) {
            auto init = setup.beginTransaction();
            for (Key a = 0; a < kAccounts; ++a)
                setup.put(init, a, std::to_string(kInitial));
            ir = co_await setup.commitTransaction(init);
        }
        EXPECT_EQ(ir, CommitResult::Committed);
        co_await sim::sleepFor(cluster->sim(), 50 * kMillisecond);

        for (std::uint32_t c = 1; c < 4; ++c)
            sim::spawn(transferLoop(*cluster, c, seed * 31 + c, halt));

        // The chaos schedule crashes the shard's primary (and spawns
        // the failover) somewhere in the next ~210 ms; sleep past the
        // whole window plus a second of traffic.
        co_await sim::sleepFor(cluster->sim(),
                               300 * kMillisecond + kSecond);
        // Unlike the old direct `co_await failover(...)` form, the
        // chaos-driven failover runs in the background — and the
        // promoted primary refuses service until it has waited out
        // the old primary's lease. Hold the audit until recovery
        // completes.
        auto &promoted =
            cluster->primary(static_cast<common::ShardId>(seed % 2));
        while (promoted.recovering())
            co_await sim::sleepFor(cluster->sim(), 10 * kMillisecond);
        // Leave the CTP scanners running past ctpTimeout so orphaned
        // multi-shard prepares from the crash window resolve before
        // the audit.
        co_await sim::sleepFor(cluster->sim(), 150 * kMillisecond);
        // Halt the transfer loops but NOT the simulator: after
        // requestStop servers refuse reads whose timestamp their
        // current lease doesn't cover (they can no longer renew), and
        // the promoted primary starts with no lease at all.
        *halt = true;
        co_await sim::sleepFor(cluster->sim(), 200 * kMillisecond);

        auto &auditor = cluster->client(0);
        long total = -1;
        for (int attempt = 0; attempt < 30 && total < 0; ++attempt) {
            auto txn = auditor.beginTransaction();
            long sum = 0;
            bool ok = true;
            for (Key a = 0; a < kAccounts && ok; ++a) {
                auto r = co_await auditor.get(txn, a);
                ok = r.ok && r.found;
                if (ok)
                    sum += balanceOf(r.value, &ok);
            }
            if (ok && co_await auditor.commitTransaction(txn) ==
                          CommitResult::Committed)
                total = sum;
            else
                auditor.abortTransaction(txn);
        }
        EXPECT_EQ(total, static_cast<long>(kAccounts) * kInitial)
            << "seed " << seed;

        // The cluster must still accept new transactions post-crash.
        auto post = cluster->client(0).beginTransaction();
        cluster->client(0).put(post, 0,
                               std::to_string(kInitial));
        // (Note: overwrites account 0; runs after the audit.)
        auto pr = co_await cluster->client(0).commitTransaction(post);
        EXPECT_EQ(pr, CommitResult::Committed) << "seed " << seed;
        cluster->sim().requestStop();
        *done = true;
    }(&cluster, seed, &halt_transfers, &scenario_done));

    // Bounded drive; the fault fires as a simulator event, and the
    // scenario requests stop itself.
    cluster.runUntil(cluster.now() + 30 * kSecond);
    EXPECT_TRUE(scenario_done) << "scenario wedged for seed " << seed;
    EXPECT_EQ(chaos.injections(), 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, RecoveryFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u, 99u, 111u, 123u,
                                           137u));
