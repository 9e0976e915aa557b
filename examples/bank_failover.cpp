/**
 * @file
 * Fault-tolerance walkthrough: a bank ledger runs transfer
 * transactions while the primary of one shard is killed and a backup
 * is promoted. Demonstrates:
 *
 *  - inconsistent primary/backup replication surviving a crash;
 *  - Algorithm 2 recovery (merging replica transaction logs);
 *  - the read lease: the promoted primary waits out the old lease
 *    before serving, so no pre-crash read can be contradicted;
 *  - an invariant check (total balance) across the failover.
 */

#include <cstdio>
#include <string>

#include "milana/client.hh"
#include "workload/cluster.hh"

using common::Key;
using milana::CommitResult;
using milana::MilanaClient;
using workload::Cluster;
using workload::ClusterConfig;

namespace {

constexpr Key kAccounts = 32;
constexpr int kInitialBalance = 1000;

sim::Task<bool>
transfer(MilanaClient &client, Key from, Key to, int amount)
{
    auto txn = client.beginTransaction();
    auto rf = co_await client.get(txn, from);
    auto rt = co_await client.get(txn, to);
    if (!rf.ok || !rt.ok) {
        client.abortTransaction(txn);
        co_return false;
    }
    const int bf = std::stoi(rf.value);
    const int bt = std::stoi(rt.value);
    if (bf < amount) {
        client.abortTransaction(txn);
        co_return false;
    }
    client.put(txn, from, std::to_string(bf - amount));
    client.put(txn, to, std::to_string(bt + amount));
    co_return co_await client.commitTransaction(txn) ==
        CommitResult::Committed;
}

sim::Task<long>
audit(MilanaClient &client)
{
    for (int attempt = 0; attempt < 20; ++attempt) {
        auto txn = client.beginTransaction();
        long total = 0;
        bool ok = true;
        for (Key a = 0; a < kAccounts && ok; ++a) {
            auto r = co_await client.get(txn, a);
            ok = r.ok && r.found;
            if (ok)
                total += std::stoi(r.value);
        }
        if (ok && co_await client.commitTransaction(txn) ==
                      CommitResult::Committed)
            co_return total;
        client.abortTransaction(txn);
    }
    co_return -1;
}

sim::Task<void>
scenario(Cluster &cluster)
{
    auto &teller = cluster.client(0);
    auto &auditor = cluster.client(1);

    // Open the accounts.
    auto setup = teller.beginTransaction();
    for (Key a = 0; a < kAccounts; ++a)
        teller.put(setup, a, std::to_string(kInitialBalance));
    (void)co_await teller.commitTransaction(setup);
    co_await sim::sleepFor(cluster.sim(), 50 * common::kMillisecond);
    std::printf("opened %llu accounts with %d each (total %lld)\n",
                static_cast<unsigned long long>(kAccounts),
                kInitialBalance,
                static_cast<long long>(kAccounts * kInitialBalance));

    // Steady stream of transfers.
    common::Rng rng(7);
    int committed = 0, aborted = 0;
    for (int i = 0; i < 50; ++i) {
        const Key from = rng.nextBounded(kAccounts);
        const Key to = (from + 1 + rng.nextBounded(kAccounts - 1)) %
                       kAccounts;
        (co_await transfer(teller, from, to,
                           static_cast<int>(rng.nextBounded(50)) + 1)
             ? committed
             : aborted)++;
    }
    std::printf("before failover: %d transfers committed, %d aborted\n",
                committed, aborted);

    // Kill shard 0's primary and promote its first backup.
    const auto old_primary = cluster.master().primaryOf(0);
    const auto promoted = cluster.master().backupsOf(0)[0];
    std::printf("\n!!! crashing shard-0 primary (node %u), promoting "
                "node %u\n",
                old_primary, promoted);
    cluster.network().setNodeDown(old_primary, true);
    const auto t0 = cluster.sim().now();
    co_await cluster.failover(0, promoted);
    std::printf("recovery complete after %.1f ms simulated (includes "
                "the lease wait)\n",
                common::toMillis(cluster.sim().now() - t0));

    // Keep transferring against the new primary.
    committed = aborted = 0;
    for (int i = 0; i < 50; ++i) {
        const Key from = rng.nextBounded(kAccounts);
        const Key to = (from + 1 + rng.nextBounded(kAccounts - 1)) %
                       kAccounts;
        (co_await transfer(teller, from, to,
                           static_cast<int>(rng.nextBounded(50)) + 1)
             ? committed
             : aborted)++;
    }
    std::printf("after failover:  %d transfers committed, %d aborted\n",
                committed, aborted);

    const long total = co_await audit(auditor);
    std::printf("\naudit (read-only snapshot txn): total = %ld — %s\n",
                total,
                total == kAccounts * kInitialBalance
                    ? "invariant holds across the crash"
                    : "INVARIANT VIOLATED");
    cluster.sim().requestStop();
}

} // namespace

int
main()
{
    ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.replicasPerShard = 3;
    cfg.numClients = 2;
    cfg.backend = workload::BackendKind::Mftl;
    cfg.clocks = workload::ClockKind::PtpSw;
    cfg.numKeys = 1000;

    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    sim::spawn(scenario(cluster));
    cluster.sim().run();
    return 0;
}
