#include "clocksync/sync.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sim/future.hh"

namespace clocksync {

using common::kMicrosecond;
using common::kMillisecond;
using common::kNanosecond;
using common::kSecond;

SyncConfig
SyncConfig::ptpHardware()
{
    SyncConfig c;
    c.name = "ptp-hw";
    c.interval = 2 * kSecond;
    c.timestampNoiseSigma = 500 * kNanosecond;
    c.pathDelaySigma = 300 * kNanosecond;
    return c;
}

SyncConfig
SyncConfig::ptpSoftware()
{
    SyncConfig c;
    c.name = "ptp-sw";
    c.interval = 2 * kSecond;
    // Software timestamping: interrupt/softirq latency noise. Tuned so
    // the realized average pairwise skew matches the paper's measured
    // 53.2 us (section 5.2).
    c.timestampNoiseSigma = 45 * kMicrosecond;
    c.pathDelaySigma = 5 * kMicrosecond;
    return c;
}

SyncConfig
SyncConfig::ntp()
{
    SyncConfig c;
    c.name = "ntp";
    c.interval = 16 * kSecond;
    // Kernel timestamps plus scheduling jitter; tuned so the realized
    // average pairwise skew matches the paper's measured 1.51 ms.
    c.timestampNoiseSigma = 1300 * kMicrosecond;
    c.pathDelaySigma = 100 * kMicrosecond;
    return c;
}

SyncConfig
SyncConfig::dtp()
{
    SyncConfig c;
    c.name = "dtp";
    c.interval = kSecond / 2;
    c.timestampNoiseSigma = 120 * kNanosecond;
    c.pathDelaySigma = 50 * kNanosecond;
    return c;
}

SyncConfig
SyncConfig::perfect()
{
    SyncConfig c;
    c.name = "perfect";
    c.interval = 100 * kMillisecond;
    c.timestampNoiseSigma = 0;
    c.pathDelaySigma = 0;
    return c;
}

namespace {

/** Steady-state residual offset std-dev for a full-gain discipline. */
double
steadyStateSigma(const SyncConfig &cfg)
{
    const double ts = static_cast<double>(cfg.timestampNoiseSigma);
    const double path = static_cast<double>(cfg.pathDelaySigma);
    return std::sqrt(ts * ts + path * path / 2.0);
}

} // namespace

SyncAgent::SyncAgent(sim::Simulator &sim, DriftClock &clock,
                     const SyncConfig &cfg, common::Rng rng)
    : sim_(sim), clock_(clock), cfg_(cfg), rng_(rng)
{
}

void
SyncAgent::setHoldover(bool holdover)
{
    holdover_ = holdover;
    if (!holdover)
        havePrevious_ = false; // next measurement restarts the servo
}

void
SyncAgent::performExchange()
{
    if (holdover_) {
        // Master unreachable: the exchange never happens. Skipping
        // here (rather than pausing run()) keeps the exchange *phase*
        // unchanged across the outage, like a real slave's timer.
        if (stats_ != nullptr)
            stats_->holdoverSkips.inc();
        trace_.instant("clocksync.sync.holdover", cfg_.name);
        return;
    }
    // The exchange spans a few hundred microseconds of real time over
    // which the offset moves by picoseconds; we therefore evaluate the
    // slave offset once, at the current instant.
    const double offset = static_cast<double>(clock_.currentOffset());
    const double mean_d = static_cast<double>(cfg_.pathDelayMean);
    const double sigma_d = static_cast<double>(cfg_.pathDelaySigma);
    const double sigma_ts = static_cast<double>(cfg_.timestampNoiseSigma);

    const double d_ms = std::max(0.0, rng_.nextGaussian(mean_d, sigma_d));
    const double d_sm = std::max(0.0, rng_.nextGaussian(mean_d, sigma_d));
    const double wait = 100.0 * kMicrosecond; // slave turn-around

    // Four timestamps of the IEEE-1588 exchange, each with
    // timestamping noise. The master is the reference (true time).
    const double t0 = static_cast<double>(sim_.now());
    const double t1 = t0 + rng_.nextGaussian(0.0, sigma_ts);
    const double t2 =
        (t0 + d_ms) + offset + rng_.nextGaussian(0.0, sigma_ts);
    const double t3 =
        (t0 + d_ms + wait) + offset + rng_.nextGaussian(0.0, sigma_ts);
    const double t4 =
        (t0 + d_ms + wait + d_sm) + rng_.nextGaussian(0.0, sigma_ts);

    const double measured = ((t2 - t1) - (t4 - t3)) / 2.0;

    // Frequency servo: after the previous exchange zeroed the offset,
    // whatever reappeared is (drift * interval + noise), so the
    // apparent frequency error is measured / interval. Skip the first
    // exchange — its measurement contains the arbitrary initial offset.
    if (havePrevious_ && cfg_.frequencyGain > 0.0) {
        const double ppm =
            measured / static_cast<double>(cfg_.interval) * 1e6;
        clock_.adjustRatePpm(-cfg_.frequencyGain * ppm);
    }
    havePrevious_ = true;

    clock_.applyCorrection(
        static_cast<Duration>(std::llround(measured)), cfg_.gain);

    const auto measured_ns =
        static_cast<std::int64_t>(std::llround(measured));
    if (stats_ != nullptr) {
        stats_->exchanges.inc();
        stats_->offsetAbs.record(std::abs(measured_ns));
    }
    trace_.instant("clocksync.sync.exchange", cfg_.name, measured_ns);
}

sim::Task<void>
SyncAgent::run()
{
    // Randomize phase so all agents do not correct in lockstep.
    co_await sim::sleepFor(
        sim_, static_cast<Duration>(rng_.nextBounded(
                  static_cast<std::uint64_t>(cfg_.interval))));
    while (!sim_.stopRequested()) {
        performExchange();
        co_await sim::sleepFor(sim_, cfg_.interval);
    }
}

ClockEnsemble::ClockEnsemble(sim::Simulator &sim, std::size_t n,
                             const SyncConfig &cfg, common::Rng &rng)
    : sim_(sim), cfg_(cfg)
{
    DriftClock::Params params;
    params.driftPpmSigma = 5.0;
    // Start in steady state so short runs need no warm-up.
    params.initialOffsetSigma =
        static_cast<Duration>(std::llround(steadyStateSigma(cfg)));

    for (std::size_t i = 0; i < n; ++i) {
        auto clock = std::make_unique<DriftClock>(sim_, params, rng);
        agents_.push_back(std::make_unique<SyncAgent>(
            sim_, *clock, cfg_, rng.fork()));
        agents_.back()->setStats(&exchangeStats_);
        clocks_.push_back(std::move(clock));
    }
}

void
ClockEnsemble::setMasterDown(bool down)
{
    if (down == masterDown_)
        return;
    masterDown_ = down;
    for (auto &agent : agents_)
        agent->setHoldover(down);
    (down ? masterDowns_ : masterUps_).inc();
}

void
ClockEnsemble::start()
{
    for (auto &agent : agents_)
        sim::spawn(agent->run());
    sim::spawn(skewSampler());
}

sim::Task<void>
ClockEnsemble::skewSampler()
{
    while (!sim_.stopRequested()) {
        for (std::size_t i = 0; i < clocks_.size(); ++i) {
            for (std::size_t j = i + 1; j < clocks_.size(); ++j) {
                const Duration skew = std::abs(
                    clocks_[i]->currentOffset() -
                    clocks_[j]->currentOffset());
                skewHist_.record(skew);
                maxSkew_ = std::max(maxSkew_, skew);
            }
        }
        co_await sim::sleepFor(sim_, 100 * kMillisecond);
    }
}

double
ClockEnsemble::avgPairwiseSkew() const
{
    return skewHist_.mean();
}

Duration
ClockEnsemble::instantaneousMaxPairwiseSkew() const
{
    if (clocks_.empty())
        return 0;
    Duration lo = clocks_[0]->currentOffset();
    Duration hi = lo;
    for (const auto &clock : clocks_) {
        const Duration off = clock->currentOffset();
        lo = std::min(lo, off);
        hi = std::max(hi, off);
    }
    return hi - lo;
}

} // namespace clocksync
