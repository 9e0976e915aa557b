/**
 * @file
 * Property-based tests: randomized operation sequences checked against
 * simple reference models.
 *
 *  - VersionChain vs a std::map reference under random insert /
 *    prune / remove / relocate interleavings;
 *  - storage backends under random put/get schedules: every
 *    acknowledged write must be readable at (and after) its stamp
 *    until the watermark passes it;
 *  - clock monotonicity under random corrections;
 *  - MILANA serializability under a randomized multi-client mix
 *    (read-modify-write counters must never lose updates).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "clocksync/clock.hh"
#include "flash/ssd.hh"
#include "ftl/dram.hh"
#include "ftl/mftl.hh"
#include "ftl/sftl.hh"
#include "ftl/vftl.hh"
#include "workload/cluster.hh"

using common::Key;
using common::kMillisecond;
using common::kSecond;
using common::Rng;
using common::Version;

// ----------------------------------------------------- version chains

TEST(Property, VersionChainMatchesReferenceModel)
{
    Rng rng(101);
    for (int trial = 0; trial < 50; ++trial) {
        ftl::VersionChain<int> chain;
        std::map<Version, int> model;

        for (int op = 0; op < 200; ++op) {
            const double p = rng.nextDouble();
            const Version v{
                static_cast<common::Time>(rng.nextBounded(500) + 1),
                static_cast<common::ClientId>(rng.nextBounded(3))};
            if (p < 0.5) {
                const int loc = static_cast<int>(rng.nextBounded(1000));
                const bool inserted = chain.insert(v, loc);
                EXPECT_EQ(inserted, !model.count(v));
                model.emplace(v, loc);
            } else if (p < 0.8) {
                // A GC move rewrites the locator in place.
                const int loc = static_cast<int>(rng.nextBounded(1000));
                auto *entry = chain.find(v);
                auto it = model.find(v);
                EXPECT_EQ(entry != nullptr, it != model.end());
                if (entry != nullptr && it != model.end()) {
                    entry->loc = loc;
                    it->second = loc;
                }
            } else {
                // Watermark prune: keep youngest <= wm plus younger.
                const common::Time wm =
                    static_cast<common::Time>(rng.nextBounded(500));
                chain.pruneBelowWatermark(wm, [](const auto &) {});
                // Reference: find youngest entry with ts <= wm; drop
                // everything older than it.
                Version keep = Version::zero();
                bool have = false;
                for (const auto &[ver, loc] : model) {
                    if (ver.timestamp <= wm &&
                        (!have || ver > keep)) {
                        keep = ver;
                        have = true;
                    }
                }
                if (have) {
                    for (auto it = model.begin(); it != model.end();) {
                        it = it->first < keep ? model.erase(it)
                                              : std::next(it);
                    }
                }
            }
            // Compare lookups at random cut points.
            const Version at{
                static_cast<common::Time>(rng.nextBounded(600)),
                static_cast<common::ClientId>(rng.nextBounded(3))};
            const auto *entry = chain.findAt(at);
            // Reference youngest <= at:
            const std::pair<const Version, int> *ref = nullptr;
            for (const auto &kv : model) {
                if (kv.first <= at && (ref == nullptr ||
                                       kv.first > ref->first))
                    ref = &kv;
            }
            ASSERT_EQ(entry != nullptr, ref != nullptr);
            if (entry != nullptr) {
                EXPECT_EQ(entry->version, ref->first);
                EXPECT_EQ(entry->loc, ref->second);
            }
        }
    }
}

// -------------------------------------------------- backend schedules

namespace {

struct BackendRig
{
    sim::Simulator sim;
    std::unique_ptr<flash::SsdDevice> ssd;
    std::unique_ptr<ftl::Sftl> sftl;
    std::unique_ptr<ftl::KvBackend> backend;

    explicit BackendRig(const std::string &which)
    {
        flash::Geometry g;
        g.numBlocks = 128;
        g.pagesPerBlock = 8;
        g.numChannels = 4;
        g.queueDepth = 16;
        if (which == "dram") {
            backend = std::make_unique<ftl::DramBackend>(sim);
            return;
        }
        ssd = std::make_unique<flash::SsdDevice>(sim, g);
        if (which == "mftl") {
            backend = std::make_unique<ftl::Mftl>(sim, *ssd,
                                                  ftl::Mftl::Config{});
        } else {
            sftl = std::make_unique<ftl::Sftl>(sim, *ssd);
            backend = std::make_unique<ftl::Vftl>(sim, *sftl,
                                                  ftl::Vftl::Config{});
        }
    }
};

} // namespace

class BackendScheduleTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BackendScheduleTest, AckedWritesAlwaysReadable)
{
    BackendRig rig(GetParam());
    // Reference: per key, the set of acknowledged stamped values.
    auto model = std::make_shared<
        std::map<Key, std::map<Version, std::string>>>();
    auto failures = std::make_shared<int>(0);

    auto worker = [&](common::ClientId id) -> sim::Task<void> {
        Rng rng(200 + id);
        for (int op = 0; op < 300; ++op) {
            const Key key = rng.nextBounded(40);
            if (rng.nextBool(0.5)) {
                const Version v{rig.sim.now() + 1, id};
                const std::string val =
                    std::to_string(id) + ":" + std::to_string(op);
                auto st = co_await rig.backend->put(key, val, v);
                if (st == ftl::PutStatus::Ok)
                    (*model)[key][v] = val;
            } else {
                const Version at{rig.sim.now(), 255};
                auto r = co_await rig.backend->get(key, at);
                // Reference youngest <= at among acked writes. A racing
                // writer may have added a version we don't know about;
                // only flag values the model can prove wrong: a found
                // version claimed by the model must carry the model's
                // value.
                auto mit = model->find(key);
                if (r.found && mit != model->end()) {
                    auto vit = mit->second.find(r.version);
                    if (vit != mit->second.end() &&
                        vit->second != r.value)
                        ++*failures;
                }
                if (!r.found && mit != model->end()) {
                    // There must be no acked version <= at.
                    for (const auto &[v, val] : mit->second) {
                        if (v <= at)
                            ++*failures;
                    }
                }
            }
        }
    };
    for (common::ClientId id = 1; id <= 4; ++id)
        sim::spawn(worker(id));
    rig.sim.run();
    EXPECT_EQ(*failures, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendScheduleTest,
                         ::testing::Values("dram", "mftl", "vftl"));

// -------------------------------------------------------- clock props

TEST(Property, ClockMonotoneUnderRandomCorrections)
{
    sim::Simulator s;
    Rng rng(303);
    clocksync::DriftClock::Params p;
    p.driftPpmSigma = 20.0;
    p.initialOffsetSigma = kMillisecond;
    clocksync::DriftClock clock(s, p, rng);

    common::Time last = clock.localNow();
    for (int i = 0; i < 2000; ++i) {
        s.schedule(rng.nextBounded(kMillisecond) + 1, [] {});
        s.run();
        if (rng.nextBool(0.1)) {
            clock.applyCorrection(
                rng.nextRange(-2 * kMillisecond, 2 * kMillisecond),
                rng.nextDouble());
        }
        if (rng.nextBool(0.05))
            clock.adjustRatePpm(rng.nextGaussian(0, 5));
        const common::Time now = clock.localNow();
        ASSERT_GE(now, last);
        last = now;
    }
}

// --------------------------------------------- transactional counters

TEST(Property, NoLostUpdatesUnderRandomMix)
{
    // Counters incremented via read-modify-write transactions; the
    // final values must equal the number of committed increments
    // (OCC must not lose or double-apply updates).
    workload::ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.replicasPerShard = 1;
    cfg.numClients = 4;
    cfg.backend = workload::BackendKind::Dram;
    cfg.clocks = workload::ClockKind::Perfect;
    cfg.numKeys = 64;
    workload::Cluster cluster(cfg);
    cluster.populate();
    cluster.start();

    constexpr Key kCounters = 8;
    auto committed =
        std::make_shared<std::map<Key, int>>(); // per-key commits

    auto incrementer = [&](std::uint32_t c) -> sim::Task<void> {
        auto &client = cluster.client(c);
        Rng rng(400 + c);
        for (int i = 0; i < 60; ++i) {
            const Key key = rng.nextBounded(kCounters);
            auto txn = client.beginTransaction();
            auto r = co_await client.get(txn, key);
            if (!r.ok) {
                client.abortTransaction(txn);
                continue;
            }
            const int current =
                (r.found && r.value != "init") ? std::stoi(r.value) : 0;
            client.put(txn, key, std::to_string(current + 1));
            if (co_await client.commitTransaction(txn) ==
                milana::CommitResult::Committed)
                ++(*committed)[key];
        }
    };
    for (std::uint32_t c = 0; c < 4; ++c)
        sim::spawn(incrementer(c));
    cluster.sim().runFor(30 * kSecond);

    // Verify: each counter equals its committed increment count.
    auto verify = [&]() -> sim::Task<void> {
        auto &client = cluster.client(0);
        auto txn = client.beginTransaction();
        for (Key key = 0; key < kCounters; ++key) {
            auto r = co_await client.get(txn, key);
            const int value =
                (r.found && r.value != "init") ? std::stoi(r.value) : 0;
            EXPECT_EQ(value, (*committed)[key]) << "counter " << key;
        }
        (void)co_await client.commitTransaction(txn);
        cluster.sim().requestStop();
    };
    sim::spawn(verify());
    cluster.sim().run();
}
