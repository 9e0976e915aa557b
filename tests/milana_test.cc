/**
 * @file
 * MILANA integration tests: transaction semantics (atomicity,
 * snapshot isolation, serializability), local validation, OCC
 * conflicts, the cooperative termination protocol, leases, and
 * primary failover recovery.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <string_view>

#include "milana/client.hh"
#include "milana/txn_table.hh"
#include "workload/cluster.hh"

using namespace workload;
using common::kMillisecond;
using common::kSecond;
using common::Key;
using common::Time;
using milana::CommitResult;
using milana::MilanaClient;
using milana::Transaction;

namespace {

ClusterConfig
smallConfig(std::uint32_t shards = 3, std::uint32_t replicas = 3,
            std::uint32_t clients = 4)
{
    ClusterConfig cfg;
    cfg.numShards = shards;
    cfg.replicasPerShard = replicas;
    cfg.numClients = clients;
    cfg.backend = BackendKind::Dram;
    cfg.clocks = ClockKind::Perfect;
    cfg.numKeys = 2000;
    return cfg;
}

/** Run one coroutine to completion on the cluster's simulator. */
template <typename Fn>
void
drive(Cluster &cluster, Fn fn)
{
    sim::spawn(fn());
    cluster.sim().run();
}

} // namespace

TEST(Milana, ReadWriteTransactionCommits)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        auto read = co_await client.get(txn, 1);
        EXPECT_TRUE(read.ok);
        EXPECT_TRUE(read.found);
        EXPECT_EQ(read.value, "init");
        client.put(txn, 1, "updated");
        result = co_await client.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
}

TEST(Milana, CommittedWritesVisibleToLaterTransactions)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto t1 = client.beginTransaction();
        client.put(t1, 5, "newval");
        auto r1 = co_await client.commitTransaction(t1);
        EXPECT_EQ(r1, CommitResult::Committed);
        // The decision is asynchronous; give it a moment to apply.
        co_await sim::sleepFor(cluster.sim(), 20 * kMillisecond);
        auto t2 = client.beginTransaction();
        auto read = co_await client.get(t2, 5);
        seen = read.value;
        (void)co_await client.commitTransaction(t2);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "newval");
}

TEST(Milana, ReadYourOwnBufferedWrites)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 9, "buffered");
        auto read = co_await client.get(txn, 9);
        seen = read.value;
        client.abortTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "buffered");
}

TEST(Milana, ReadOnlyCommitsLocallyWithZeroMessages)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.get(txn, 2);
        const auto prepares_before =
            cluster.serverStats().counterValue("milana.prepares");
        result = co_await client.commitTransaction(txn);
        const auto prepares_after =
            cluster.serverStats().counterValue("milana.prepares");
        EXPECT_EQ(prepares_before, prepares_after); // no 2PC at all
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    EXPECT_GT(cluster.clientStats().counterValue(
                  "txn.local_validations"),
              0u);
}

TEST(Milana, WriteWriteConflictAborts)
{
    Cluster cluster(smallConfig(1, 1, 2));
    cluster.populate();
    cluster.start();
    int committed = 0, aborted = 0;
    drive(cluster, [&]() -> sim::Task<void> {
        // Two transactions from different clients race on key 7; both
        // read then write it. Serializability allows at most one to
        // commit.
        auto worker = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            auto txn = client.beginTransaction();
            (void)co_await client.get(txn, 7);
            client.put(txn, 7, "c" + std::to_string(c));
            auto r = co_await client.commitTransaction(txn);
            if (r == CommitResult::Committed)
                ++committed;
            else
                ++aborted;
        };
        sim::spawn(worker(0));
        sim::spawn(worker(1));
        co_await sim::sleepFor(cluster.sim(), kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(committed + aborted, 2);
    EXPECT_LE(committed, 1);
    EXPECT_GE(aborted, 1);
}

TEST(Milana, SnapshotIsolationAcrossConcurrentWriter)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string first, second;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &reader = cluster.client(0);
        auto &writer = cluster.client(1);

        auto ro = reader.beginTransaction();
        auto r1 = co_await reader.get(ro, 11);
        first = r1.value;

        // A writer commits a new version after the reader's begin.
        auto w = writer.beginTransaction();
        writer.put(w, 11, "after-snapshot");
        auto wr = co_await writer.commitTransaction(w);
        EXPECT_EQ(wr, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 20 * kMillisecond);

        // The reader must still see its snapshot (multi-version).
        auto r2 = co_await reader.get(ro, 12);
        (void)r2;
        auto r3 = co_await reader.get(ro, 11); // cached
        second = r3.value;
        auto rr = co_await reader.commitTransaction(ro);
        EXPECT_EQ(rr, CommitResult::Committed);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(first, "init");
    EXPECT_EQ(second, "init");
}

TEST(Milana, AbortDiscardsBufferedWrites)
{
    Cluster cluster(smallConfig());
    cluster.populate();
    cluster.start();
    std::string seen;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto t1 = client.beginTransaction();
        client.put(t1, 3, "discarded");
        client.abortTransaction(t1);
        auto t2 = client.beginTransaction();
        auto read = co_await client.get(t2, 3);
        seen = read.value;
        (void)co_await client.commitTransaction(t2);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(seen, "init");
}

TEST(Milana, CrossShardTransactionIsAtomic)
{
    Cluster cluster(smallConfig(3, 1, 2));
    cluster.populate();
    cluster.start();
    // Write a batch of keys that hash across shards in one
    // transaction; afterwards either all or none are visible. The batch
    // is larger than the sets a transaction and a prepare hold inline,
    // so the spill path carries it.
    constexpr Key kFirst = 100;
    constexpr Key kLast = 125;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        for (Key k = kFirst; k < kLast; ++k)
            client.put(txn, k, "batch");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        auto check = client.beginTransaction();
        int updated = 0;
        for (Key k = kFirst; k < kLast; ++k) {
            auto read = co_await client.get(check, k);
            updated += (read.value == "batch");
        }
        EXPECT_EQ(updated, static_cast<int>(kLast - kFirst));
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, SerializabilityBankInvariant)
{
    // The classic audit test: concurrent transfers move value between
    // accounts; read-only audits must always see the same total.
    Cluster cluster(smallConfig(3, 1, 4));
    cluster.populate();
    cluster.start();
    constexpr Key kAccounts = 16;
    constexpr int kInitial = 100;

    bool audit_violation = false;
    int audits_done = 0;

    drive(cluster, [&]() -> sim::Task<void> {
        auto &setup = cluster.client(0);
        auto init = setup.beginTransaction();
        for (Key a = 0; a < kAccounts; ++a)
            setup.put(init, a, std::to_string(kInitial));
        auto ir = co_await setup.commitTransaction(init);
        EXPECT_EQ(ir, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        auto transferer = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            common::Rng rng(c + 77);
            for (int i = 0; i < 40; ++i) {
                const Key from = rng.nextBounded(kAccounts);
                const Key to = rng.nextBounded(kAccounts);
                if (from == to)
                    continue;
                auto txn = client.beginTransaction();
                auto rf = co_await client.get(txn, from);
                auto rt = co_await client.get(txn, to);
                if (!rf.ok || !rt.ok) {
                    client.abortTransaction(txn);
                    continue;
                }
                const int vf = std::stoi(rf.value);
                const int vt = std::stoi(rt.value);
                client.put(txn, from, std::to_string(vf - 1));
                client.put(txn, to, std::to_string(vt + 1));
                (void)co_await client.commitTransaction(txn);
            }
        };
        auto auditor = [&]() -> sim::Task<void> {
            auto &client = cluster.client(3);
            for (int i = 0; i < 30; ++i) {
                auto txn = client.beginTransaction();
                long total = 0;
                bool ok = true;
                for (Key a = 0; a < kAccounts && ok; ++a) {
                    auto r = co_await client.get(txn, a);
                    ok = r.ok && r.found;
                    if (ok)
                        total += std::stoi(r.value);
                }
                auto cr = co_await client.commitTransaction(txn);
                if (ok && cr == CommitResult::Committed) {
                    ++audits_done;
                    if (total != kAccounts * kInitial)
                        audit_violation = true;
                }
                co_await sim::sleepFor(cluster.sim(), kMillisecond);
            }
        };
        sim::spawn(transferer(1));
        sim::spawn(transferer(2));
        sim::spawn(auditor());
        co_await sim::sleepFor(cluster.sim(), 5 * kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_GT(audits_done, 5);
    EXPECT_FALSE(audit_violation);
}

TEST(Milana, CtpResolvesOrphanedPrepare)
{
    // A client crashes after its prepares land but before any decision
    // is delivered. The participants' cooperative termination protocol
    // must resolve the transaction (all voted commit -> commit) and
    // unblock the keys.
    Cluster cluster(smallConfig(2, 1, 2));
    cluster.populate();
    cluster.start();

    drive(cluster, [&]() -> sim::Task<void> {
        auto &doomed = cluster.client(0);
        auto txn = doomed.beginTransaction();
        for (Key k = 0; k < 12; ++k)
            doomed.put(txn, k, "orphan");
        // Crash the client node mid-commit: prepares already in flight
        // will be delivered, but the client's decision messages (and
        // the vote responses) are dropped.
        sim::spawn([](MilanaClient *client,
                      Transaction *txn) -> sim::Task<void> {
            (void)co_await client->commitTransaction(*txn);
        }(&doomed, &txn));
        // 60 us: the prepare requests are in flight (sent at ~0, one
        // way ~50 us) but the votes cannot have returned yet.
        co_await sim::sleepFor(cluster.sim(),
                               60 * common::kMicrosecond);
        cluster.network().setNodeDown(doomed.nodeId(), true);

        // Give the CTP time to fire (timeout 50 ms + scan period).
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);

        // The transaction table must hold no prepared entries and the
        // keys must be writable again by another client.
        for (common::ShardId s = 0; s < 2; ++s) {
            EXPECT_EQ(cluster.primary(s).txnTable().size(), 0u)
                << "shard " << s << " still blocked";
        }
        auto &other = cluster.client(1);
        auto txn2 = other.beginTransaction();
        (void)co_await other.get(txn2, 0);
        other.put(txn2, 0, "unblocked");
        auto r = co_await other.commitTransaction(txn2);
        EXPECT_EQ(r, CommitResult::Committed);
        cluster.sim().requestStop();
    });
    common::StatSet servers = cluster.serverStats();
    EXPECT_GT(servers.counterValue("milana.ctp_invocations"), 0u);
}

TEST(Milana, FailoverRecoversCommittedState)
{
    Cluster cluster(smallConfig(1, 3, 2));
    cluster.populate();
    cluster.start();

    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 42, "survives");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);

        // Crash the primary (node 0) and promote the first backup.
        const common::NodeId old_primary =
            cluster.master().primaryOf(0);
        const common::NodeId new_primary =
            cluster.master().backupsOf(0)[0];
        cluster.network().setNodeDown(old_primary, true);
        co_await cluster.failover(0, new_primary);

        // After recovery (incl. the lease wait), reads and writes work
        // against the new primary and see the committed value.
        auto txn2 = client.beginTransaction();
        auto read = co_await client.get(txn2, 42);
        EXPECT_TRUE(read.ok);
        EXPECT_EQ(read.value, "survives");
        client.put(txn2, 42, "post-failover");
        auto r2 = co_await client.commitTransaction(txn2);
        EXPECT_EQ(r2, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

TEST(Milana, FailoverResolvesInDoubtCrossShardTxn)
{
    // Prepare lands on shards A and B; the commit decision reaches
    // only B before A's primary crashes. The promoted A-replica must
    // learn the outcome from B during recovery (Algorithm 2 + CTP).
    Cluster cluster(smallConfig(2, 3, 2));
    cluster.populate();
    cluster.start();

    // Find one key per shard.
    Key key_a = 0, key_b = 0;
    for (Key k = 0; k < 100; ++k) {
        if (cluster.master().shardMap().shardOf(k) == 0)
            key_a = k;
        else
            key_b = k;
    }

    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, key_a, "in-doubt");
        client.put(txn, key_b, "in-doubt");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);

        // Immediately crash shard 0's primary: with high probability
        // the async decision reached B but not necessarily A; either
        // way recovery must converge to commit.
        const common::NodeId a_primary = cluster.master().primaryOf(0);
        cluster.network().setNodeDown(a_primary, true);
        const common::NodeId promoted =
            cluster.master().backupsOf(0)[0];
        co_await cluster.failover(0, promoted);
        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);

        auto check = client.beginTransaction();
        auto ra = co_await client.get(check, key_a);
        auto rb = co_await client.get(check, key_b);
        EXPECT_EQ(ra.value, "in-doubt");
        EXPECT_EQ(rb.value, "in-doubt");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, RemoteValidationPathForReadOnly)
{
    auto cfg = smallConfig();
    cfg.localValidation = false; // Figure 8's "w/o LV" configuration
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.get(txn, 2);
        result = co_await client.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    // Remote validation means the servers saw prepare requests.
    EXPECT_GT(cluster.serverStats().counterValue("milana.prepares"), 0u);
    EXPECT_EQ(cluster.clientStats().counterValue(
                  "txn.local_validations"),
              0u);
}

TEST(Milana, LeaseRenewalRuns)
{
    Cluster cluster(smallConfig(1, 3, 2));
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        (void)co_await client.get(txn, 1);
        (void)co_await client.commitTransaction(txn);
        co_await sim::sleepFor(cluster.sim(), 2 * kSecond);
        cluster.sim().requestStop();
    });
    EXPECT_GT(cluster.serverStats().counterValue(
                  "milana.lease_renewals"),
              0u);
    EXPECT_GT(cluster.primary(0).leaseUntil(), 0);
}

TEST(Milana, ReplicaReadsValidateAtPrimary)
{
    // Section 4.6 relaxation: a read-write-hinted transaction reads
    // from arbitrary replicas; commit still validates at the primary.
    auto cfg = smallConfig(2, 3, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    // Rebuild a client with the relaxation enabled.
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.readFromAnyReplica = true;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient relaxed(cluster.sim(), cluster.network(), 2000,
                                 99, clock, cluster.master(),
                                 cluster.directory(), ccfg, tcfg);
    CommitResult result{};
    drive(cluster, [&]() -> sim::Task<void> {
        auto txn = relaxed.beginTransaction(milana::TxnHint::ReadWrite);
        auto r = co_await relaxed.get(txn, 3);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.value, "init");
        relaxed.put(txn, 3, "via-replica-read");
        result = co_await relaxed.commitTransaction(txn);
        cluster.sim().requestStop();
    });
    EXPECT_EQ(result, CommitResult::Committed);
    EXPECT_GT(relaxed.stats().counterValue("txn.replica_reads"), 0u);
}

TEST(Milana, StaleReplicaReadAborts)
{
    // A replica read that returns stale data must fail validation at
    // the primary rather than commit a non-serializable transaction.
    auto cfg = smallConfig(1, 3, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.readFromAnyReplica = true;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient relaxed(cluster.sim(), cluster.network(), 2001,
                                 98, clock, cluster.master(),
                                 cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // Cut replication to one backup so it stays stale, then
        // repeatedly update key 5 through the normal client.
        auto &writer = cluster.client(0);
        for (int i = 0; i < 5; ++i) {
            auto w = writer.beginTransaction();
            writer.put(w, 5, "fresh" + std::to_string(i));
            (void)co_await writer.commitTransaction(w);
        }
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        // Hinted transactions read from random replicas; across
        // attempts some read stale snapshots, but every COMMITTED
        // outcome must reflect primary-validated state.
        int commits = 0, aborts = 0;
        for (int i = 0; i < 20; ++i) {
            auto txn =
                relaxed.beginTransaction(milana::TxnHint::ReadWrite);
            auto r = co_await relaxed.get(txn, 5);
            if (!r.ok) {
                relaxed.abortTransaction(txn);
                continue;
            }
            relaxed.put(txn, 5, "rw" + std::to_string(i));
            auto res = co_await relaxed.commitTransaction(txn);
            (res == CommitResult::Committed ? commits : aborts)++;
        }
        EXPECT_GT(commits, 0);
        cluster.sim().requestStop();
    });
}

TEST(Milana, InterTxnCacheServesRepeatReads)
{
    auto cfg = smallConfig(2, 1, 1);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.interTxnCacheCapacity = 128;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient cachy(cluster.sim(), cluster.network(), 2002,
                               97, clock, cluster.master(),
                               cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // First hinted txn populates the cache.
        auto t1 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t1, 4);
        cachy.put(t1, 9, "x");
        (void)co_await cachy.commitTransaction(t1);

        // Second hinted txn reads key 4 from cache: zero server gets.
        const auto gets_before =
            cachy.stats().counterValue("client.gets");
        auto t2 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        auto r = co_await cachy.get(t2, 4);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(cachy.stats().counterValue("client.gets"),
                  gets_before);
        EXPECT_GT(cachy.stats().counterValue("txn.cache_hits"), 0u);
        cachy.put(t2, 9, "y");
        auto res = co_await cachy.commitTransaction(t2);
        EXPECT_EQ(res, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

TEST(Milana, StaleCacheEntryAbortsThenRecovers)
{
    auto cfg = smallConfig(1, 1, 2);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    milana::MilanaClient::TxnConfig tcfg;
    tcfg.interTxnCacheCapacity = 128;
    semel::Client::Config ccfg;
    clocksync::PerfectClock clock(cluster.sim());
    milana::MilanaClient cachy(cluster.sim(), cluster.network(), 2003,
                               96, clock, cluster.master(),
                               cluster.directory(), ccfg, tcfg);
    drive(cluster, [&]() -> sim::Task<void> {
        // Warm the cache on key 6.
        auto t1 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t1, 6);
        cachy.put(t1, 7, "warm");
        (void)co_await cachy.commitTransaction(t1);

        // Another client updates key 6 behind the cache's back.
        auto &other = cluster.client(0);
        auto w = other.beginTransaction();
        other.put(w, 6, "invalidating");
        (void)co_await other.commitTransaction(w);
        co_await sim::sleepFor(cluster.sim(), 50 * kMillisecond);

        // The cached read is now stale: the hinted txn must abort...
        auto t2 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        (void)co_await cachy.get(t2, 6); // cache hit, stale
        cachy.put(t2, 6, "mine");
        auto r2 = co_await cachy.commitTransaction(t2);
        EXPECT_EQ(r2, CommitResult::Aborted);

        // ...and the abort invalidates the entry, so the retry reads
        // fresh data and commits.
        auto t3 = cachy.beginTransaction(milana::TxnHint::ReadWrite);
        auto fresh = co_await cachy.get(t3, 6);
        EXPECT_EQ(fresh.value, "invalidating");
        cachy.put(t3, 6, "mine-after-retry");
        auto r3 = co_await cachy.commitTransaction(t3);
        EXPECT_EQ(r3, CommitResult::Committed);
        cluster.sim().requestStop();
    });
}

TEST(Milana, ConcurrentDecisionsAreIdempotent)
{
    // Regression: a duplicate/CTP decision racing the client's own
    // decision must not resolve the transaction entry out from under
    // the in-flight apply (use-after-free class).
    Cluster cluster(smallConfig(1, 1, 1));
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 1, "raced");
        client.put(txn, 2, "raced");
        auto r = co_await client.commitTransaction(txn);
        EXPECT_EQ(r, CommitResult::Committed);

        // Fire several duplicate decisions at the primary while the
        // first (async) one may still be applying.
        auto &primary = cluster.primary(0);
        semel::DecisionRequest dup{txn.id(),
                                   semel::TxnDecision::Commit};
        for (int i = 0; i < 4; ++i)
            sim::spawn([](milana::MilanaServer *p,
                          semel::DecisionRequest d) -> sim::Task<void> {
                (void)co_await p->handleDecision(d);
            }(&primary, dup));
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);

        auto check = client.beginTransaction();
        auto v1 = co_await client.get(check, 1);
        EXPECT_EQ(v1.value, "raced");
        (void)co_await client.commitTransaction(check);
        cluster.sim().requestStop();
    });
}

TEST(Milana, CtpRacingClientDecisionConverges)
{
    // Stress the decision race at scale: many multi-key transactions
    // with an aggressive CTP scanner; everything must converge with no
    // dangling prepared entries.
    auto cfg = smallConfig(2, 1, 4);
    Cluster cluster(cfg);
    cluster.populate();
    cluster.start();
    drive(cluster, [&]() -> sim::Task<void> {
        auto worker = [&](std::uint32_t c) -> sim::Task<void> {
            auto &client = cluster.client(c);
            common::Rng rng(c + 5);
            for (int i = 0; i < 50; ++i) {
                auto txn = client.beginTransaction();
                for (int k = 0; k < 4; ++k)
                    client.put(txn,
                               rng.nextBounded(200),
                               "w" + std::to_string(i));
                (void)co_await client.commitTransaction(txn);
            }
        };
        for (std::uint32_t c = 0; c < 4; ++c)
            sim::spawn(worker(c));
        co_await sim::sleepFor(cluster.sim(), 5 * kSecond);
        for (common::ShardId s = 0; s < 2; ++s)
            EXPECT_EQ(cluster.primary(s).txnTable().size(), 0u);
        cluster.sim().requestStop();
    });
}

// ------------------------------------------------ per-key server state

namespace {

/** A prepare of one write on @p shard's primary, no reads. */
semel::PrepareRequest
writePrepare(semel::TxnId txn, common::Version version, Key key)
{
    semel::PrepareRequest req;
    req.txn = txn;
    req.commitVersion = version;
    req.beginVersion = version;
    req.writeSet.push_back(semel::WriteSetEntry{key, "probe"});
    return req;
}

} // namespace

TEST(Milana, PromotedBackupRebuildsLatestCommittedFromStorage)
{
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();

    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        client.put(txn, 42, "v2");
        EXPECT_EQ(co_await client.commitTransaction(txn),
                  CommitResult::Committed);
        co_await sim::sleepFor(cluster.sim(), 100 * kMillisecond);
        const common::Version committed =
            cluster.primary(0).latestCommitted(42);
        const common::Version loaded{1, 0};
        EXPECT_GT(committed, loaded);

        cluster.network().setNodeDown(cluster.master().primaryOf(0), true);
        co_await cluster.failover(0, cluster.master().backupsOf(0)[0]);
        auto &promoted = cluster.primary(0);
        // Recovery forgot every key's state; key 7 was only ever
        // bulk-loaded, so only storage knows its stamp.
        EXPECT_EQ(promoted.keyTable().find(7), nullptr);

        const common::Version now{cluster.sim().now(), 99};
        auto stale = writePrepare({99, 1}, now, 9);
        stale.readSet.push_back(semel::ReadSetEntry{42, loaded});
        const auto r1 = co_await promoted.handlePrepare(stale);
        EXPECT_EQ(r1.vote, semel::Vote::Abort);
        EXPECT_EQ(r1.reason, semel::AbortReason::ReadStale);

        auto fresh = writePrepare({99, 2}, now, 9);
        fresh.readSet.push_back(semel::ReadSetEntry{42, committed});
        fresh.readSet.push_back(semel::ReadSetEntry{7, loaded});
        const auto r2 = co_await promoted.handlePrepare(fresh);
        EXPECT_EQ(r2.vote, semel::Vote::Commit);
        EXPECT_EQ(promoted.latestCommitted(42), committed);
        EXPECT_EQ(promoted.latestCommitted(7), loaded);
        (void)co_await promoted.handleDecision(
            semel::DecisionRequest{{99, 2}, semel::TxnDecision::Abort});
        EXPECT_FALSE(promoted.preparedVersion(9).has_value());
        cluster.sim().requestStop();
    });
}

/** Where the orphan's prepare record was logged before the crash. */
class MilanaRecovery : public ::testing::TestWithParam<const char *>
{
  protected:
    bool
    onBothBackups() const
    {
        return std::string_view(GetParam()) == "both_backups";
    }
};

TEST_P(MilanaRecovery, ReinstatedPreparedMarksBlockWritersUntilCtpResolves)
{
    // A two-shard transaction whose prepare record reached one or
    // both of shard 0's backups before the primary crashed; shard 1
    // never saw it. backups[0] is promoted and, whether it logged the
    // record itself or learns it from its peer's table (Algorithm 2),
    // re-instates the prepared mark: a conflicting prepare aborts
    // WritePrepared until the CTP (shard 1 answers Unknown) aborts the
    // orphan and clears the mark.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    Key key = 0;
    while (cluster.master().shardMap().shardOf(key) != 0)
        ++key;

    drive(cluster, [&]() -> sim::Task<void> {
        const semel::TxnId orphan{77, 1};
        semel::ReplicateTxnRecord rec;
        rec.txn = orphan;
        rec.commitVersion = common::Version{cluster.sim().now(), 77};
        rec.writeSet.push_back(semel::WriteSetEntry{key, "orphan"});
        rec.participants.push_back(0);
        rec.participants.push_back(1);
        const auto backups = cluster.master().backupsOf(0);
        for (std::size_t b = onBothBackups() ? 0 : 1; b < 2; ++b) {
            auto *logged = dynamic_cast<milana::MilanaServer *>(
                cluster.directory().at(backups[b]));
            EXPECT_TRUE(co_await logged->handleReplicateTxnRecord(rec, 0));
        }

        cluster.network().setNodeDown(cluster.master().primaryOf(0), true);
        co_await cluster.failover(0, backups[0]);
        auto &promoted = cluster.primary(0);
        EXPECT_EQ(promoted.preparedVersion(key), rec.commitVersion);
        EXPECT_EQ(promoted.txnTable().size(), 1u);

        const common::Version later{cluster.sim().now(), 78};
        const auto blocked =
            co_await promoted.handlePrepare(writePrepare({78, 1}, later, key));
        EXPECT_EQ(blocked.vote, semel::Vote::Abort);
        EXPECT_EQ(blocked.reason, semel::AbortReason::WritePrepared);

        co_await sim::sleepFor(cluster.sim(), 200 * kMillisecond);
        EXPECT_FALSE(promoted.preparedVersion(key).has_value());
        EXPECT_EQ(promoted.txnTable().size(), 0u);
        EXPECT_EQ(promoted.txnTable().statusOf(orphan),
                  semel::TxnStatus::Aborted);
        const common::Version retry{cluster.sim().now(), 78};
        const auto free =
            co_await promoted.handlePrepare(writePrepare({78, 2}, retry, key));
        EXPECT_EQ(free.vote, semel::Vote::Commit);
        (void)co_await promoted.handleDecision(
            semel::DecisionRequest{{78, 2}, semel::TxnDecision::Abort});
        cluster.sim().requestStop();
    });
    EXPECT_GT(cluster.serverStats().counterValue("milana.ctp_aborts"), 0u);
}

INSTANTIATE_TEST_SUITE_P(RecordOn, MilanaRecovery,
                         ::testing::Values("one_backup", "both_backups"));

TEST(Milana, RecoveryCommitsLocallyLoggedSingleShardPrepare)
{
    // A single-shard prepare that reached only the backup about to be
    // promoted before the primary crashed. Algorithm 2 treats a
    // prepared single-shard transaction as committed, so recovery
    // commits it before service resumes, not when the CTP times out.
    Cluster cluster(smallConfig(1, 3, 1));
    cluster.populate();
    cluster.start();

    drive(cluster, [&]() -> sim::Task<void> {
        const semel::TxnId txn{77, 1};
        semel::ReplicateTxnRecord rec;
        rec.txn = txn;
        rec.commitVersion = common::Version{cluster.sim().now(), 77};
        rec.writeSet.push_back(semel::WriteSetEntry{5, "logged"});
        rec.participants.push_back(0);
        const auto backups = cluster.master().backupsOf(0);
        auto *promoted = dynamic_cast<milana::MilanaServer *>(
            cluster.directory().at(backups[0]));
        EXPECT_TRUE(co_await promoted->handleReplicateTxnRecord(rec, 0));

        cluster.network().setNodeDown(cluster.master().primaryOf(0), true);
        co_await cluster.failover(0, backups[0]);
        EXPECT_FALSE(promoted->recovering());
        EXPECT_EQ(promoted->txnTable().statusOf(txn),
                  semel::TxnStatus::Committed);
        EXPECT_EQ(promoted->txnTable().size(), 0u);
        EXPECT_EQ(promoted->latestCommitted(5), rec.commitVersion);
        const ftl::GetResult got = co_await promoted->backend().getLatest(5);
        EXPECT_EQ(got.version, rec.commitVersion);
        EXPECT_EQ(got.value, "logged");
        cluster.sim().requestStop();
    });
}

namespace {

/** One key of each of a two-shard cluster's shards. */
std::pair<Key, Key>
keyPerShard(Cluster &cluster)
{
    Key key_a = 0, key_b = 0;
    for (Key k = 0; k < 100; ++k) {
        if (cluster.master().shardMap().shardOf(k) == 0)
            key_a = k;
        else
            key_b = k;
    }
    return {key_a, key_b};
}

milana::MilanaServer *
serverAt(Cluster &cluster, common::NodeId node)
{
    return dynamic_cast<milana::MilanaServer *>(
        cluster.directory().at(node));
}

} // namespace

TEST(Milana, OutcomeKeptUntilEveryBackupAcks)
{
    // A two-shard commit whose outcome record never reaches one of
    // shard 0's backups: its link to the primary is cut as the commit
    // returns, after its prepare copy left. Shard 1 truncates the
    // transaction once the client's decisions are in and its backups
    // hold the outcome. Shard 0 must keep it on the primary and the
    // other backup: the lagging backup holds only the prepare, and
    // once promoted it would ask shard 1 (Unknown) and abort a
    // committed transaction if no peer still held the outcome.
    Cluster cluster(smallConfig(2, 3, 1));
    cluster.populate();
    cluster.start();
    const auto [key_a, key_b] = keyPerShard(cluster);

    bool finished = false;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        const common::NodeId primary = cluster.master().primaryOf(0);
        const auto backups = cluster.master().backupsOf(0);
        const common::NodeId lagging = backups[1];
        auto txn = client.beginTransaction();
        client.put(txn, key_a, "kept");
        client.put(txn, key_b, "kept");
        const semel::TxnId id = txn.id();
        EXPECT_EQ(co_await client.commitTransaction(txn),
                  CommitResult::Committed);
        cluster.network().setLinkBroken(primary, lagging, true);

        // Fifty CTP scans and ten watermark reports later.
        co_await sim::sleepFor(cluster.sim(), kSecond);
        EXPECT_GT(cluster.primary(1).txnRecordsPruned(), 0u);
        EXPECT_EQ(cluster.primary(1).txnTable().statusOf(id),
                  semel::TxnStatus::Unknown);
        EXPECT_EQ(cluster.primary(0).txnTable().statusOf(id),
                  semel::TxnStatus::Committed);
        EXPECT_EQ(serverAt(cluster, backups[0])->txnTable().statusOf(id),
                  semel::TxnStatus::Committed);
        EXPECT_EQ(serverAt(cluster, lagging)->txnTable().statusOf(id),
                  semel::TxnStatus::Prepared);

        cluster.network().setNodeDown(primary, true);
        co_await cluster.failover(0, lagging);
        EXPECT_EQ(serverAt(cluster, lagging)->txnTable().statusOf(id),
                  semel::TxnStatus::Committed);
        auto check = client.beginTransaction();
        const auto read = co_await client.get(check, key_a);
        EXPECT_TRUE(read.ok);
        EXPECT_EQ(read.value, "kept");
        (void)co_await client.commitTransaction(check);
        finished = true;
        cluster.sim().requestStop();
    });
    EXPECT_TRUE(finished);
    const common::StatSet servers = cluster.serverStats();
    EXPECT_EQ(servers.counterValue("milana.txn_table.below_horizon_status"),
              0u);
    EXPECT_EQ(servers.counterValue("milana.ctp_aborts"), 0u);
}

TEST(Milana, LateDecisionPinsHorizon)
{
    // The client's decision to shard 1 is lost: its link to shard 1's
    // primary is cut while the prepares are out. Shard 0 hears the
    // decision and truncates an earlier transaction, but keeps this
    // one, which the client's reports now pin: shard 1's CTP asks
    // for it once its prepare times out, and must hear Committed.
    Cluster cluster(smallConfig(2, 1, 1));
    cluster.populate();
    cluster.start();
    const auto [key_a, key_b] = keyPerShard(cluster);

    bool finished = false;
    drive(cluster, [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto first = client.beginTransaction();
        client.put(first, key_a, "first");
        const semel::TxnId first_id = first.id();
        EXPECT_EQ(co_await client.commitTransaction(first),
                  CommitResult::Committed);

        auto txn = client.beginTransaction();
        client.put(txn, key_a, "late");
        client.put(txn, key_b, "late");
        const semel::TxnId id = txn.id();
        sim::spawn([](MilanaClient *client,
                      Transaction *txn) -> sim::Task<void> {
            EXPECT_EQ(co_await client->commitTransaction(*txn),
                      CommitResult::Committed);
        }(&client, &txn));
        // 60 us: both prepares left (one way ~50 us), no vote is back.
        co_await sim::sleepFor(cluster.sim(), 60 * common::kMicrosecond);
        const common::NodeId shard1 = cluster.master().primaryOf(1);
        cluster.network().setLinkBrokenOneWay(client.nodeId(), shard1,
                                              true);

        co_await sim::sleepFor(cluster.sim(), 500 * kMillisecond);
        const auto *kept = cluster.primary(0).txnTable().find(id);
        EXPECT_NE(kept, nullptr);
        if (kept != nullptr) {
            EXPECT_EQ(kept->status, semel::TxnStatus::Committed);
            EXPECT_LE(client.doneBelow(), kept->commitVersion.timestamp);
        }
        EXPECT_EQ(cluster.primary(0).txnTable().statusOf(first_id),
                  semel::TxnStatus::Unknown);
        EXPECT_EQ(cluster.primary(1).txnTable().statusOf(id),
                  semel::TxnStatus::Committed);

        cluster.network().setLinkBrokenOneWay(client.nodeId(), shard1,
                                              false);
        auto check = client.beginTransaction();
        const auto read = co_await client.get(check, key_b);
        EXPECT_EQ(read.value, "late");
        (void)co_await client.commitTransaction(check);
        finished = true;
        cluster.sim().requestStop();
    });
    EXPECT_TRUE(finished);
    const common::StatSet servers = cluster.serverStats();
    EXPECT_GT(servers.counterValue("milana.ctp_commits"), 0u);
    EXPECT_EQ(servers.counterValue("milana.txn_table.below_horizon_status"),
              0u);
}

TEST(Milana, UnreservedKeyTableGrowsWithoutChangingOutcomes)
{
    // The same seeded workload over mostly-unloaded keys on two
    // clusters: one with the per-key tables pre-sized for every key,
    // one left at its populate size, which must grow several times
    // while other transactions are suspended mid-prepare or
    // mid-commit. Slot moves must change nothing observable.
    constexpr Key kKeys = 6000;
    struct Run
    {
        std::vector<CommitResult> outcomes;
        std::vector<common::Version> latest;
        std::uint64_t votesCommit = 0;
        std::uint64_t votesAbort = 0;
        std::vector<std::size_t> capacityBefore, capacityAfter;
    };
    auto run = [&](bool reserve) {
        auto cfg = smallConfig(2, 1, 4);
        cfg.numKeys = 100;
        Cluster cluster(cfg);
        cluster.populate();
        cluster.start();
        Run out;
        for (common::ShardId s = 0; s < 2; ++s) {
            if (reserve)
                cluster.primary(s).reserveKeys(kKeys);
            out.capacityBefore.push_back(
                cluster.primary(s).keyTable().capacity());
        }
        drive(cluster, [&]() -> sim::Task<void> {
            auto worker = [&](std::uint32_t c) -> sim::Task<void> {
                auto &client = cluster.client(c);
                common::Rng rng(c + 11);
                for (int i = 0; i < 120; ++i) {
                    // One hot key (conflicts) and three cold ones
                    // (mostly first touches, so the tables grow).
                    auto txn = client.beginTransaction();
                    const Key hot = rng.nextBounded(8);
                    (void)co_await client.get(txn, hot);
                    client.put(txn, hot, "w");
                    for (int k = 0; k < 3; ++k)
                        client.put(txn, rng.nextBounded(kKeys), "w");
                    out.outcomes.push_back(
                        co_await client.commitTransaction(txn));
                }
            };
            for (std::uint32_t c = 0; c < 4; ++c)
                sim::spawn(worker(c));
            co_await sim::sleepFor(cluster.sim(), 5 * kSecond);
            cluster.sim().requestStop();
        });
        for (Key k = 0; k < kKeys; ++k) {
            out.latest.push_back(
                cluster.primary(cluster.master().shardMap().shardOf(k))
                    .latestCommitted(k));
        }
        for (common::ShardId s = 0; s < 2; ++s)
            out.capacityAfter.push_back(
                cluster.primary(s).keyTable().capacity());
        const common::StatSet stats = cluster.serverStats();
        out.votesCommit = stats.counterValue("milana.votes_commit");
        out.votesAbort = stats.counterValue("milana.votes_abort");
        return out;
    };
    const Run reserved = run(true);
    const Run grown = run(false);

    EXPECT_EQ(reserved.capacityAfter, reserved.capacityBefore);
    for (std::size_t s = 0; s < 2; ++s)
        EXPECT_GE(grown.capacityAfter[s], 4 * grown.capacityBefore[s])
            << "shard " << s << " never grew";
    ASSERT_EQ(grown.outcomes.size(), 480u);
    EXPECT_EQ(grown.outcomes, reserved.outcomes);
    EXPECT_EQ(grown.latest, reserved.latest);
    EXPECT_EQ(grown.votesCommit, reserved.votesCommit);
    EXPECT_EQ(grown.votesAbort, reserved.votesAbort);
    EXPECT_GT(grown.votesCommit, 0u);
    EXPECT_GT(grown.votesAbort, 0u);
}

// ------------------------------------------------- transaction table

TEST(TxnTable, RandomRecordsMatchReferenceModel)
{
    // Prepared, Committed and Aborted records of a sliding set of
    // transactions, fed in any order and with duplicates (Figure 5),
    // mixed with the primary's claim-then-resolve decisions and a
    // truncation horizon rising just behind the window (never past a
    // live transaction). A plain map of what each transaction should
    // look like is the reference: decided transactions below the
    // horizon vanish from it, and a record below the horizon never
    // changes it. The window slides over ~150 times the table's
    // initial capacity, so the table grows, shifts robin-hood runs
    // and reuses the blocks that truncation frees.
    using semel::TxnStatus;
    struct Model
    {
        TxnStatus status;
        bool live;
        common::Version commitVersion;
        std::vector<semel::WriteSetEntry> writeSet;
        Time preparedAt;
    };
    // What every record of one transaction carries: its write set
    // and stamp never change between records.
    auto record_of = [](std::uint64_t serial, TxnStatus status) {
        semel::ReplicateTxnRecord rec;
        rec.txn = semel::TxnId{
            static_cast<common::ClientId>(1 + serial % 3), serial};
        rec.status = status;
        rec.commitVersion =
            common::Version{static_cast<Time>(1000 + serial), 1};
        for (std::uint64_t w = 0; w <= serial % 4; ++w)
            rec.writeSet.push_back(semel::WriteSetEntry{
                serial * 10 + w, "v" + std::to_string(serial)});
        rec.participants.push_back(0);
        rec.participants.push_back(static_cast<common::ShardId>(serial % 2));
        return rec;
    };
    auto decide = [](Model &m, TxnStatus outcome) {
        m.status = outcome;
        m.live = false;
        if (outcome == TxnStatus::Aborted)
            m.writeSet.clear();
    };

    auto prepared_before = [](const std::map<semel::TxnId, Model> &m,
                              Time deadline) {
        std::vector<semel::TxnId> ids;
        for (const auto &[txn, e] : m) {
            if (e.live && e.status == TxnStatus::Prepared &&
                e.preparedAt < deadline)
                ids.push_back(txn);
        }
        return ids;
    };
    // Every held transaction's entry matches its model.
    auto matches = [](const milana::TxnTable &table,
                      const std::map<semel::TxnId, Model> &model) {
        for (const auto &[txn, m] : model) {
            const milana::TxnSlot *rec = table.find(txn);
            if (rec == nullptr || rec->status != m.status ||
                rec->live() != m.live ||
                rec->commitVersion != m.commitVersion ||
                rec->writeSet().size() != m.writeSet.size())
                return false;
            for (std::size_t w = 0; w < m.writeSet.size(); ++w) {
                if (rec->writeSet()[w].key != m.writeSet[w].key ||
                    rec->writeSet()[w].value != m.writeSet[w].value)
                    return false;
            }
        }
        return true;
    };

    milana::TxnTable table;
    const std::size_t initial_capacity = 16;
    std::map<semel::TxnId, Model> model;
    std::size_t max_claimed = 0, pruned = 0, dropped_late = 0;
    Time horizon = 0;
    common::Rng rng(16);
    // A window of 24 transactions sliding over the run: each gets a
    // few records and decisions, and the last ones are still live.
    // One leaving the window undecided is resolved by the primary,
    // as the CTP would, so the horizon keeps rising.
    constexpr std::uint64_t kSteps = 40000, kWindow = 24;
    constexpr std::uint64_t kTxns = kSteps / 16 + kWindow;
    for (std::uint64_t step = 0; step < kSteps; ++step) {
        if (step % 16 == 0 && step > 0) {
            const semel::TxnId gone = record_of(step / 16 - 1,
                                                TxnStatus::Prepared).txn;
            auto it = model.find(gone);
            if (it != model.end() && it->second.live) {
                const TxnStatus outcome =
                    it->second.status == TxnStatus::Prepared
                        ? TxnStatus::Aborted
                        : it->second.status;
                table.findLive(gone)->status = outcome;
                EXPECT_EQ(table.resolve(gone, outcome).status, outcome);
                decide(it->second, outcome);
            }
        }
        const std::uint64_t serial = step / 16 + rng.nextBounded(kWindow);
        const Time at = static_cast<Time>(rng.nextBounded(1000));
        const auto op = rng.nextBounded(13);
        auto rec = record_of(serial, TxnStatus::Prepared);
        const semel::TxnId id = rec.txn;
        auto it = model.find(id);
        if (op == 12) {
            // The horizon heads for just past the window's oldest few
            // serials but stops at a live transaction, so later records
            // of the oldest ones arrive below it.
            const Time limit = static_cast<Time>(1000 + step / 16 + 4);
            Time h = limit;
            for (const auto &[txn, m] : model) {
                if (m.live)
                    h = std::min(h, m.commitVersion.timestamp);
            }
            horizon = std::max(horizon, h);
            const std::size_t gone =
                std::erase_if(model, [horizon](const auto &entry) {
                    return !entry.second.live &&
                           entry.second.commitVersion.timestamp < horizon;
                });
            ASSERT_EQ(table.truncate(limit, false), gone) << "step " << step;
            ASSERT_EQ(table.horizon(), horizon);
            pruned += gone;
        } else if (op < 3) {
            // The primary claims a prepared transaction (its status
            // changes while it stays live), then later resolves it.
            if (it == model.end() || !it->second.live)
                continue;
            Model &m = it->second;
            if (m.status == TxnStatus::Prepared) {
                m.status = op == 0 ? TxnStatus::Aborted
                                   : TxnStatus::Committed;
                table.findLive(id)->status = m.status;
            } else {
                EXPECT_EQ(table.resolve(id, m.status).status, m.status);
                decide(m, m.status);
            }
        } else {
            // A replicated record; aborted ones still carry a write
            // set here, which the table must drop.
            rec.status = op < 7   ? TxnStatus::Prepared
                         : op < 9 ? TxnStatus::Committed
                                  : TxnStatus::Aborted;
            bool changes = false;
            // A record below the horizon is late: the table drops it,
            // live or decided, and never brings a truncated
            // transaction back.
            const bool late = rec.commitVersion.timestamp < horizon;
            dropped_late += late;
            if (late) {
                // No change.
            } else if (it == model.end()) {
                changes = true;
                Model m{rec.status, true, rec.commitVersion,
                        {rec.writeSet.begin(), rec.writeSet.end()}, at};
                if (rec.status != TxnStatus::Prepared)
                    decide(m, rec.status);
                model.emplace(id, std::move(m));
            } else if (it->second.live &&
                       it->second.status == TxnStatus::Prepared &&
                       rec.status != TxnStatus::Prepared) {
                changes = true;
                decide(it->second, rec.status);
            }
            const auto *stored = table.merge(rec, at);
            ASSERT_EQ(stored != nullptr, changes) << "step " << step;
            if (late && it == model.end()) {
                ASSERT_EQ(table.find(id), nullptr) << "step " << step;
            }
        }
        std::size_t live = 0, claimed = 0;
        for (const auto &[txn, m] : model) {
            live += m.live;
            claimed += m.live && m.status != TxnStatus::Prepared;
        }
        max_claimed = std::max(max_claimed, claimed);
        ASSERT_EQ(table.size(), live) << "step " << step;
        ASSERT_EQ(table.decidedCount(), model.size() - live)
            << "step " << step;
        // In TxnId order, which the insertion order of the live
        // records is not.
        ASSERT_EQ(table.preparedBefore(at), prepared_before(model, at))
            << "step " << step;
        ASSERT_TRUE(matches(table, model)) << "step " << step;
    }
    EXPECT_GT(max_claimed, 0u);
    EXPECT_GT(pruned, 100 * initial_capacity);
    EXPECT_GT(dropped_late, 0u);
    EXPECT_GT(table.slotCapacity(), initial_capacity);

    std::size_t live = 0, decided = 0;
    for (std::uint64_t serial = 0; serial < kTxns + 4; ++serial) {
        const semel::TxnId id = record_of(serial, TxnStatus::Prepared).txn;
        auto it = model.find(id);
        if (it == model.end()) {
            EXPECT_EQ(table.statusOf(id), TxnStatus::Unknown);
            EXPECT_EQ(table.find(id), nullptr);
            continue;
        }
        const Model &m = it->second;
        EXPECT_EQ(table.statusOf(id), m.status) << serial;
        EXPECT_EQ(table.findLive(id) != nullptr, m.live) << serial;
        live += m.live;
        decided += !m.live;
    }
    EXPECT_TRUE(matches(table, model));
    EXPECT_EQ(table.size(), live);
    EXPECT_EQ(table.decidedCount(), decided);
    EXPECT_GT(table.preparedBefore(1000).size(), 0u);
    EXPECT_GT(decided, 0u);
    EXPECT_LT(decided + live + pruned, kTxns);

    // The id lists walk TxnId order.
    const std::vector<semel::TxnId> live_ids = table.liveIds();
    const std::vector<semel::TxnId> decided_ids = table.decidedIds();
    EXPECT_EQ(live_ids.size(), live);
    EXPECT_EQ(decided_ids.size(), decided);
    EXPECT_TRUE(std::is_sorted(live_ids.begin(), live_ids.end()));
    EXPECT_TRUE(std::is_sorted(decided_ids.begin(), decided_ids.end()));

    // A late duplicate prepare never brings a decided transaction back.
    for (const auto &[txn, m] : model) {
        if (m.live)
            continue;
        EXPECT_EQ(table.merge(record_of(txn.serial, TxnStatus::Prepared),
                              0),
                  nullptr);
        EXPECT_EQ(table.statusOf(txn), m.status);
    }
    EXPECT_EQ(table.size(), live);
    EXPECT_EQ(table.decidedCount(), decided);
}

TEST(TxnTable, SteadyStateStopsGrowing)
{
    // A primary's pattern: each transaction prepares, is decided a
    // few transactions later (one in four aborts), every backup acks
    // its outcome, and the horizon trails the decisions. Once the
    // horizon advances, the slot array, the arena and the indexes are
    // at their working size: another 100k transactions allocate no
    // slot, slab or index capacity.
    using semel::TxnStatus;
    constexpr std::uint64_t kLag = 40, kWarm = 10'000, kMore = 100'000;
    milana::TxnTable table;
    std::size_t pruned = 0;
    auto step = [&](std::uint64_t serial) {
        semel::ReplicateTxnRecord rec;
        rec.txn = semel::TxnId{static_cast<common::ClientId>(1000 +
                                                             serial % 32),
                               serial};
        rec.commitVersion = common::Version{static_cast<Time>(serial), 1};
        for (std::uint64_t w = 0; w <= serial % 5; ++w)
            rec.writeSet.push_back(
                semel::WriteSetEntry{serial + w, "w1000:" +
                                                     std::to_string(serial)});
        for (std::uint64_t p = 0; p <= serial % 3; ++p)
            rec.participants.push_back(static_cast<common::ShardId>(p));
        ASSERT_NE(table.merge(rec, 0), nullptr);
        if (serial < kLag)
            return;
        const std::uint64_t old = serial - kLag;
        const semel::TxnId done{static_cast<common::ClientId>(1000 +
                                                              old % 32),
                                old};
        (void)table.resolve(done, old % 4 == 0 ? TxnStatus::Aborted
                                               : TxnStatus::Committed);
        table.noteReplicated(done);
        pruned += table.truncate(static_cast<Time>(old), true);
    };
    for (std::uint64_t serial = 0; serial < kWarm; ++serial)
        step(serial);
    ASSERT_GT(pruned, kWarm / 2);
    // memoryBytes() sums the slot array, the arena's slabs and both
    // indexes, none of which ever shrinks.
    const std::size_t slots = table.slotCapacity();
    const std::uint64_t bytes = table.memoryBytes();
    for (std::uint64_t serial = kWarm; serial < kWarm + kMore; ++serial)
        step(serial);
    EXPECT_EQ(table.slotCapacity(), slots);
    EXPECT_EQ(table.memoryBytes(), bytes);
    EXPECT_GT(pruned, kMore);
    EXPECT_EQ(table.size(), kLag);
}

TEST(TxnTableDeathTest, UnpackableTxnIdPanics)
{
    // The table key packs a 24-bit client and a 40-bit serial.
    milana::TxnTable table;
    semel::ReplicateTxnRecord rec;
    rec.txn = semel::TxnId{1u << 24, 1};
    EXPECT_DEATH((void)table.merge(rec, 0), "does not fit");
    rec.txn = semel::TxnId{1, std::uint64_t{1} << 40};
    EXPECT_DEATH((void)table.statusOf(rec.txn), "does not fit");
    rec.txn = semel::TxnId{(1u << 24) - 1, (std::uint64_t{1} << 40) - 1};
    EXPECT_NE(table.merge(rec, 0), nullptr);
    EXPECT_EQ(table.liveIds(), std::vector<semel::TxnId>{rec.txn});
}

TEST(TxnTable, HorizonWaitsForLiveAndUnreplicatedRecords)
{
    // On a primary the horizon stops at a live record and at a decided
    // one that not every backup has acked (H_repl). Truncation drops
    // the decided records below it, and the horizon never falls.
    using semel::TxnStatus;
    auto prepare = [](std::uint64_t serial, Time stamp) {
        semel::ReplicateTxnRecord rec;
        rec.txn = semel::TxnId{1, serial};
        rec.commitVersion = common::Version{stamp, 1};
        rec.writeSet.push_back(semel::WriteSetEntry{serial, "v"});
        rec.participants.push_back(0);
        return rec;
    };
    milana::TxnTable table;
    const semel::TxnId a{1, 1}, b{1, 2}, c{1, 3};
    ASSERT_NE(table.merge(prepare(1, 100), 0), nullptr);
    ASSERT_NE(table.merge(prepare(2, 200), 0), nullptr);
    ASSERT_NE(table.merge(prepare(3, 300), 0), nullptr);
    EXPECT_EQ(table.truncate(1000, true), 0u);
    EXPECT_EQ(table.horizon(), 100);

    (void)table.resolve(a, TxnStatus::Committed);
    (void)table.resolve(c, TxnStatus::Aborted);
    EXPECT_EQ(table.truncate(1000, true), 0u);
    EXPECT_EQ(table.horizon(), 100);
    table.noteReplicated(a);
    EXPECT_EQ(table.truncate(1000, true), 1u);
    EXPECT_EQ(table.horizon(), 200);
    EXPECT_EQ(table.statusOf(a), TxnStatus::Unknown);
    auto late = prepare(1, 100);
    late.status = TxnStatus::Committed;
    EXPECT_EQ(table.merge(late, 0), nullptr);
    EXPECT_EQ(table.statusOf(a), TxnStatus::Unknown);
    EXPECT_EQ(table.truncate(150, true), 0u);
    EXPECT_EQ(table.horizon(), 200);

    // A backup truncates at its primary's horizon without the check.
    (void)table.resolve(b, TxnStatus::Committed);
    EXPECT_EQ(table.truncate(1000, false), 2u);
    EXPECT_EQ(table.horizon(), 1000);
    EXPECT_EQ(table.decidedCount(), 0u);
    EXPECT_EQ(table.statusOf(c), TxnStatus::Unknown);
}
