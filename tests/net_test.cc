/**
 * @file
 * Tests for the simulated network: delay sampling, RPC round trips,
 * crash and partition semantics, one-way sends, and loss timing.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/simulator.hh"

using namespace net;
using common::kMicrosecond;
using common::kMillisecond;
using common::Rng;

namespace {

NetConfig
fastConfig()
{
    NetConfig cfg;
    cfg.oneWayMean = 50 * kMicrosecond;
    cfg.oneWaySigma = 0;
    cfg.minLatency = 5 * kMicrosecond;
    cfg.rpcTimeout = 5 * kMillisecond;
    return cfg;
}

sim::Task<int>
echoHandler(int x)
{
    co_return x * 2;
}

} // namespace

TEST(Network, DelaySamplesRespectMinimum)
{
    sim::Simulator s;
    NetConfig cfg;
    cfg.oneWayMean = 10 * kMicrosecond;
    cfg.oneWaySigma = 50 * kMicrosecond; // wild jitter
    cfg.minLatency = 5 * kMicrosecond;
    Network net(s, cfg, Rng(1));
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(net.sampleDelay(), cfg.minLatency);
}

TEST(Network, DelayMeanApproximatelyConfigured)
{
    sim::Simulator s;
    NetConfig cfg;
    cfg.oneWayMean = 100 * kMicrosecond;
    cfg.oneWaySigma = 10 * kMicrosecond;
    Network net(s, cfg, Rng(2));
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(net.sampleDelay());
    EXPECT_NEAR(sum / n, 100 * kMicrosecond, 2 * kMicrosecond);
}

TEST(Network, RpcRoundTripDeliversAndTimes)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(3));
    std::optional<int> got;
    common::Time done = 0;
    sim::spawn([](sim::Simulator *s, Network *net,
                  std::optional<int> *got,
                  common::Time *done) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
        *done = s->now();
    }(&s, &net, &got, &done));
    s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42);
    EXPECT_EQ(done, 2 * 50 * kMicrosecond); // request + response legs
}

TEST(Network, CrashedDestinationTimesOut)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(4));
    net.setNodeDown(2, true);
    std::optional<int> got = 7;
    common::Time done = 0;
    sim::spawn([](sim::Simulator *s, Network *net,
                  std::optional<int> *got,
                  common::Time *done) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
        *done = s->now();
    }(&s, &net, &got, &done));
    s.run();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(done, 5 * kMillisecond); // the configured RPC timeout
}

TEST(Network, CrashMidFlightDropsRequest)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(5));
    std::optional<int> got = 7;
    sim::spawn([](Network *net,
                  std::optional<int> *got) -> sim::Task<void> {
        *got = co_await net->callTyped<int>(1, 2, echoHandler(21));
    }(&net, &got));
    // Crash the destination while the request is in flight (25 us in).
    s.schedule(25 * kMicrosecond, [&] { net.setNodeDown(2, true); });
    s.run();
    EXPECT_FALSE(got.has_value());
}

TEST(Network, PartitionBlocksBothDirections)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(6));
    net.setLinkBroken(1, 2, true);
    EXPECT_FALSE(net.deliverable(1, 2));
    EXPECT_FALSE(net.deliverable(2, 1));
    EXPECT_TRUE(net.deliverable(1, 3));
    net.setLinkBroken(1, 2, false);
    EXPECT_TRUE(net.deliverable(1, 2));
}

TEST(Network, NodeRestartRestoresDelivery)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(7));
    net.setNodeDown(5, true);
    EXPECT_FALSE(net.deliverable(1, 5));
    net.setNodeDown(5, false);
    EXPECT_TRUE(net.deliverable(1, 5));
}

TEST(Network, OneWaySendDelivers)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(8));
    bool delivered = false;
    net.send(1, 2, [&] { delivered = true; });
    s.run();
    EXPECT_TRUE(delivered);
}

TEST(Network, OneWaySendToDownNodeDropped)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(9));
    net.setNodeDown(2, true);
    bool delivered = false;
    net.send(1, 2, [&] { delivered = true; });
    s.run();
    EXPECT_FALSE(delivered);
}

TEST(Network, StatsCountTraffic)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(10));
    sim::spawn([](Network *net) -> sim::Task<void> {
        (void)co_await net->callTyped<int>(1, 2, echoHandler(1));
    }(&net));
    s.run();
    EXPECT_EQ(net.stats().counterValue("net.calls"), 1u);
    EXPECT_EQ(net.stats().counterValue("net.request_lost"), 0u);
}

TEST(Network, OneWayBreakAndHealPerDirection)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(11));
    net.setLinkBrokenOneWay(1, 2, true);
    EXPECT_FALSE(net.deliverable(1, 2));
    EXPECT_TRUE(net.deliverable(2, 1));
    net.setLinkBrokenOneWay(2, 1, true);
    EXPECT_FALSE(net.deliverable(2, 1));
    // Healing one direction leaves the other cut.
    net.setLinkBrokenOneWay(1, 2, false);
    EXPECT_TRUE(net.deliverable(1, 2));
    EXPECT_FALSE(net.deliverable(2, 1));
    net.setLinkBrokenOneWay(2, 1, false);
    EXPECT_TRUE(net.deliverable(2, 1));
    // Healing a link that was never cut changes nothing.
    net.setLinkBrokenOneWay(3, 4, false);
    EXPECT_TRUE(net.deliverable(3, 4));

    // An RPC over a cut request leg times out; over a cut response
    // leg the handler runs but the reply is lost.
    net.setLinkBrokenOneWay(2, 1, true);
    std::optional<int> got = 0;
    int ran = 0;
    sim::spawn([](Network *net, std::optional<int> *got,
                  int *ran) -> sim::Task<void> {
        auto handler = [](int *ran) -> sim::Task<int> {
            ++*ran;
            co_return 1;
        };
        *got = co_await net->callTyped<int>(1, 2, handler(ran));
    }(&net, &got, &ran));
    s.run();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(net.stats().counterValue("net.response_lost"), 1u);
    EXPECT_EQ(net.stats().counterValue("net.request_lost"), 0u);
}

TEST(Network, PerLinkFactorOverridesGlobalUntilCleared)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(12)); // sigma 0: delays are exact
    net.setDelayFactor(2.0);
    net.setLinkDelayFactor(1, 2, 3.0);
    EXPECT_EQ(net.delayFactor(1, 2), 3.0);
    EXPECT_EQ(net.delayFactor(2, 1), 3.0);
    EXPECT_EQ(net.delayFactor(1, 3), 2.0);
    EXPECT_EQ(net.sampleDelay(1, 2), 150 * kMicrosecond);
    EXPECT_EQ(net.sampleDelay(2, 1), 150 * kMicrosecond);
    EXPECT_EQ(net.sampleDelay(1, 3), 100 * kMicrosecond);
    // The global factor does not reach an overridden link...
    net.setDelayFactor(4.0);
    EXPECT_EQ(net.sampleDelay(1, 2), 150 * kMicrosecond);
    // ...until 1.0 clears the override in both directions.
    net.setLinkDelayFactor(2, 1, 1.0);
    EXPECT_EQ(net.delayFactor(1, 2), 4.0);
    EXPECT_EQ(net.delayFactor(2, 1), 4.0);
    EXPECT_EQ(net.sampleDelay(1, 2), 200 * kMicrosecond);
    net.setDelayFactor(1.0);
    EXPECT_EQ(net.sampleDelay(2, 1), 50 * kMicrosecond);
    // A factor below the floor is re-floored at minLatency.
    net.setLinkDelayFactor(1, 2, 0.01);
    EXPECT_EQ(net.sampleDelay(1, 2), 5 * kMicrosecond);
}

TEST(Network, ClientIdsAndNetworkNodeUseTheirOwnLinks)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(13));
    const NodeId client = 1000;
    const NodeId far_client = 70'000;
    net.setLinkBroken(client, 0, true);
    net.setLinkBrokenOneWay(kNetworkNode, far_client, true);
    net.setLinkDelayFactor(far_client, 1, 2.0);
    EXPECT_FALSE(net.deliverable(client, 0));
    EXPECT_FALSE(net.deliverable(0, client));
    EXPECT_TRUE(net.deliverable(client + 1, 0));
    EXPECT_TRUE(net.deliverable(client, 1));
    EXPECT_FALSE(net.deliverable(kNetworkNode, far_client));
    EXPECT_TRUE(net.deliverable(far_client, kNetworkNode));
    EXPECT_EQ(net.delayFactor(1, far_client), 2.0);
    EXPECT_EQ(net.delayFactor(1, client), 1.0);
    net.setNodeDown(far_client, true);
    EXPECT_FALSE(net.deliverable(1, far_client));
    EXPECT_TRUE(net.deliverable(1, client));
    // Many links (the table grows): each keeps its own direction.
    for (NodeId c = 1000; c < 1400; ++c)
        net.setLinkBrokenOneWay(c, c % 9, c % 2 == 0);
    for (NodeId c = 1000; c < 1400; ++c) {
        EXPECT_EQ(net.deliverable(c, c % 9), c % 2 != 0) << c;
        EXPECT_TRUE(net.deliverable(c % 9, c)) << c;
    }
    EXPECT_FALSE(net.deliverable(client, 0));
    EXPECT_EQ(net.delayFactor(far_client, 1), 2.0);
}

TEST(Network, LinkHistogramsNameOnlyLegsThatCarriedTraffic)
{
    sim::Simulator s;
    Network net(s, fastConfig(), Rng(14));
    // Link state alone creates no histogram.
    net.setLinkBrokenOneWay(1, 3, true);
    net.setLinkDelayFactor(1, 4, 2.0);
    EXPECT_TRUE(net.stats().histograms().empty());

    net.send(1, 2, [] {});          // leg 1->2
    net.send(1, 3, [] {});          // cut: carries nothing
    net.send(1000, kNetworkNode, [] {});
    sim::spawn([](Network *net) -> sim::Task<void> {
        (void)co_await net->callTyped<int>(1000, 5, echoHandler(1));
        (void)co_await net->callTyped<int>(1000, 5, echoHandler(2));
    }(&net));
    s.run();
    std::vector<std::string> names;
    for (const auto &[name, hist] : net.stats().histograms())
        names.push_back(name);
    const std::vector<std::string> expected = {
        "net.link.1-2.delay", "net.link.1000-5.delay",
        "net.link.1000-999.delay", "net.link.5-1000.delay"};
    EXPECT_EQ(names, expected);
    EXPECT_EQ(net.stats().findHistogram("net.link.1000-5.delay")->count(),
              2u);
    EXPECT_EQ(net.stats().findHistogram("net.link.5-1000.delay")->count(),
              2u);
    EXPECT_EQ(net.stats().counterValue("net.sends"), 3u);
    EXPECT_EQ(net.stats().counterValue("net.calls"), 2u);
}
