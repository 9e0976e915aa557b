#include "net/network.hh"

#include <algorithm>
#include <cmath>
#include <string>

namespace net {

Network::Network(sim::Simulator &sim, const NetConfig &config,
                 common::Rng rng)
    : sim_(sim), config_(config), rng_(rng)
{
}

Duration
Network::sampleDelay()
{
    const double d = rng_.nextGaussian(
        static_cast<double>(config_.oneWayMean),
        static_cast<double>(config_.oneWaySigma));
    return std::max(config_.minLatency,
                    static_cast<Duration>(std::llround(d)));
}

namespace {

common::Key
linkKey(NodeId from, NodeId to)
{
    return (static_cast<common::Key>(from) << 32) | to;
}

} // namespace

Duration
Network::sampleDelay(NodeId from, NodeId to)
{
    return sampleDelay(links_.getOrCreate(linkKey(from, to)), from, to);
}

Duration
Network::sampleDelay(Link &l, NodeId from, NodeId to)
{
    Duration delay = sampleDelay();
    const double factor = delayFactor(&l);
    if (factor != 1.0)
        delay = std::max(config_.minLatency,
                         static_cast<Duration>(std::llround(
                             static_cast<double>(delay) * factor)));
    if (l.delay == nullptr)
        l.delay = &stats_.histogram("net.link." + std::to_string(from) +
                                    "-" + std::to_string(to) + ".delay");
    l.delay->record(delay);
    return delay;
}

std::optional<Duration>
Network::legDelay(NodeId from, NodeId to)
{
    Link &l = links_.getOrCreate(linkKey(from, to));
    if (!deliverable(from, to, &l))
        return std::nullopt;
    return sampleDelay(l, from, to);
}

void
Network::setNodeDown(NodeId node, bool down)
{
    if (down_.size() <= node)
        down_.resize(node + 1, false);
    down_[node] = down;
}

bool
Network::nodeDown(NodeId node) const
{
    return node < down_.size() && down_[node];
}

void
Network::setLinkBroken(NodeId a, NodeId b, bool broken)
{
    setLinkBrokenOneWay(a, b, broken);
    setLinkBrokenOneWay(b, a, broken);
}

void
Network::setLinkBrokenOneWay(NodeId from, NodeId to, bool broken)
{
    if (broken)
        links_.getOrCreate(linkKey(from, to)).broken = true;
    else if (Link *l = links_.find(linkKey(from, to)))
        l->broken = false;
}

bool
Network::deliverable(NodeId from, NodeId to) const
{
    return deliverable(from, to, links_.find(linkKey(from, to)));
}

bool
Network::deliverable(NodeId from, NodeId to, const Link *l) const
{
    return !nodeDown(from) && !nodeDown(to) &&
           (l == nullptr || !l->broken);
}

void
Network::setDelayFactor(double factor)
{
    delayFactorAll_ = factor;
}

void
Network::setLinkDelayFactor(NodeId a, NodeId b, double factor)
{
    for (const auto &[from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        if (factor != 1.0) {
            Link &l = links_.getOrCreate(linkKey(from, to));
            l.hasFactor = true;
            l.factor = factor;
        } else if (Link *l = links_.find(linkKey(from, to))) {
            l->hasFactor = false;
        }
    }
}

double
Network::delayFactor(NodeId from, NodeId to) const
{
    return delayFactor(links_.find(linkKey(from, to)));
}

double
Network::delayFactor(const Link *l) const
{
    return l != nullptr && l->hasFactor ? l->factor : delayFactorAll_;
}

} // namespace net
