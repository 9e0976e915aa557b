/**
 * @file
 * Clock-synchronization protocol simulation (IEEE 1588 PTP and NTP).
 *
 * Both protocols estimate a slave's offset to a master with the same
 * four-timestamp exchange:
 *
 *   master --Sync-->   slave     t1 (master clock), t2 (slave clock)
 *   master <--DelayReq-- slave   t3 (slave clock),  t4 (master clock)
 *
 *   measured_offset = ((t2 - t1) - (t4 - t3)) / 2
 *
 * With symmetric path delays and perfect timestamps this recovers the
 * true offset exactly; the residual error comes from (a) timestamping
 * noise — nanoseconds with PTP hardware timestamping, tens of
 * microseconds with PTP software timestamping, hundreds of
 * microseconds to milliseconds with NTP's kernel timestamps — and (b)
 * asymmetry between the two path delays.
 *
 * Presets reproduce the skews the paper reports in section 5.2:
 * NTP ~1.51 ms average pairwise skew, PTP software ~53 us; plus
 * PTP hardware (<1 us, section 2.1) and DTP (~150 ns, [37]).
 */

#ifndef CLOCKSYNC_SYNC_HH
#define CLOCKSYNC_SYNC_HH

#include <memory>
#include <string>
#include <vector>

#include "clocksync/clock.hh"
#include "common/histogram.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "sim/task.hh"

namespace clocksync {

/** Parameters of a synchronization discipline. */
struct SyncConfig
{
    std::string name;
    /** Interval between sync exchanges. */
    Duration interval = 2 * common::kSecond;
    /** Std-dev of each of the four timestamps' noise. */
    Duration timestampNoiseSigma = 0;
    /** Mean one-way network delay of sync messages. */
    Duration pathDelayMean = 50 * common::kMicrosecond;
    /** Std-dev of each one-way delay (asymmetry source). */
    Duration pathDelaySigma = 5 * common::kMicrosecond;
    /** Fraction of the measured offset corrected per exchange. */
    double gain = 1.0;
    /**
     * Frequency-servo damping: fraction of the apparent frequency
     * error (measured offset / sync interval) trimmed per exchange.
     * 0 disables syntonization (NTP-like loose discipline).
     */
    double frequencyGain = 0.7;

    /** PTP with NIC hardware timestamping: sub-microsecond skew. */
    static SyncConfig ptpHardware();
    /** PTP with software timestamping: tens-of-microseconds skew
     *  (the paper's client configuration; measured 53.2 us). */
    static SyncConfig ptpSoftware();
    /** NTP: millisecond skew (the paper measured 1.51 ms). */
    static SyncConfig ntp();
    /** Datacenter Time Protocol [37]: ~150 ns across a data center. */
    static SyncConfig dtp();
    /** No synchronization error at all (single-machine experiments). */
    static SyncConfig perfect();
};

/** Per-exchange stats, shared by the agents of one ensemble. */
struct ExchangeStats
{
    explicit ExchangeStats(common::StatSet &stats)
        : exchanges(stats, "clocksync.exchanges"),
          holdoverSkips(stats, "clocksync.holdover_skips"),
          offsetAbs(stats, "clocksync.offset_abs")
    {
    }

    common::CounterHandle exchanges;
    common::CounterHandle holdoverSkips;
    common::HistogramHandle offsetAbs;
};

/**
 * Disciplines one DriftClock against true time with periodic simulated
 * exchanges. Spawn run() as a background process.
 */
class SyncAgent
{
  public:
    SyncAgent(sim::Simulator &sim, DriftClock &clock,
              const SyncConfig &cfg, common::Rng rng);

    /** Periodic sync process; winds down on Simulator::requestStop. */
    sim::Task<void> run();

    /** One exchange (also used directly by unit tests). */
    void performExchange();

    /** Record per-exchange metrics into @p stats (shared across an
     *  ensemble; the sim is single-threaded). */
    void setStats(ExchangeStats *stats) { stats_ = stats; }

    /**
     * Holdover mode (PTP master outage, chaos hook): while set,
     * scheduled exchanges are skipped — no measurement, no correction
     * — so the clock free-runs on its oscillator. The first exchange
     * after holdover re-measures from scratch (the previous-offset
     * history is discarded so the frequency servo does not
     * mis-attribute the whole holdover error to frequency).
     */
    void setHoldover(bool holdover);
    bool holdover() const { return holdover_; }

    /** Trace emission handle; disabled until the cluster attaches it. */
    common::Tracer &tracer() { return trace_; }

  private:
    sim::Simulator &sim_;
    DriftClock &clock_;
    SyncConfig cfg_;
    common::Rng rng_;
    bool havePrevious_ = false;
    bool holdover_ = false;
    ExchangeStats *stats_ = nullptr;
    common::Tracer trace_;
};

/**
 * A set of synchronized node clocks plus the machinery to measure the
 * realized pairwise skew — the quantity the paper reports (1.51 ms
 * NTP, 53.2 us PTP software).
 */
class ClockEnsemble
{
  public:
    /**
     * Build @p n disciplined clocks.
     *
     * Clocks start with an offset distribution matching the steady
     * state of their discipline so short simulations need no warm-up.
     */
    ClockEnsemble(sim::Simulator &sim, std::size_t n,
                  const SyncConfig &cfg, common::Rng &rng);

    /** Start all sync agents and the skew sampler. */
    void start();

    Clock &clock(std::size_t i) { return *clocks_[i]; }
    /** Mutable drift-clock access (chaos step/stuck/drift hooks). */
    DriftClock &driftClock(std::size_t i) { return *clocks_[i]; }
    SyncAgent &agent(std::size_t i) { return *agents_[i]; }
    std::size_t size() const { return clocks_.size(); }

    /**
     * PTP master outage (chaos hook): put every agent in holdover so
     * no exchange corrects any clock until the master recovers. Counts
     * transitions in the ensemble stats.
     */
    void setMasterDown(bool down);
    bool masterDown() const { return masterDown_; }

    /** Exchange counters/offset histograms of all member agents. */
    const common::StatSet &stats() const { return stats_; }

    /** Mean absolute pairwise skew observed so far. */
    double avgPairwiseSkew() const;

    /** Max absolute pairwise skew observed so far. */
    Duration maxPairwiseSkew() const { return maxSkew_; }

    /**
     * Max absolute pairwise skew right now (spread between the
     * fastest and slowest clock's current offset). Unlike the sampled
     * aggregates above this is an instantaneous gauge, suitable for
     * time-series sampling.
     */
    Duration instantaneousMaxPairwiseSkew() const;

    const common::Histogram &skewHistogram() const { return skewHist_; }

  private:
    sim::Task<void> skewSampler();

    sim::Simulator &sim_;
    SyncConfig cfg_;
    std::vector<std::unique_ptr<DriftClock>> clocks_;
    std::vector<std::unique_ptr<SyncAgent>> agents_;
    common::Histogram skewHist_;
    Duration maxSkew_ = 0;
    bool masterDown_ = false;
    common::StatSet stats_;
    ExchangeStats exchangeStats_{stats_};
    common::CounterHandle masterDowns_{stats_, "clocksync.master_down"};
    common::CounterHandle masterUps_{stats_, "clocksync.master_up"};
};

} // namespace clocksync

#endif // CLOCKSYNC_SYNC_HH
