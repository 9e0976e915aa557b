/**
 * @file
 * Node-local clock models.
 *
 * Every client and server in the simulation owns a Clock that maps the
 * simulator's TrueTime to the node's LocalTime. SEMEL version stamps
 * and MILANA transaction timestamps are always LocalTime values, so
 * clock skew between nodes is what produces the spurious-abort effects
 * the paper studies (section 2.1, Figure 1).
 *
 * DriftClock models a quartz oscillator disciplined by a
 * synchronization protocol:
 *
 *   local(t) = t + offset0 + drift_ppm * 1e-6 * (t - t_sync)
 *
 * A sync exchange (see sync.hh) measures the offset with protocol-
 * dependent error and corrects it, leaving a residual equal to the
 * measurement error. Between syncs the offset grows linearly with the
 * node's drift rate.
 *
 * Clocks are monotone: real NTP/PTP daemons slew rather than step
 * backwards, and the paper's watermark GC relies on monotonicity, so
 * localNow() never returns a smaller value than a previous call.
 */

#ifndef CLOCKSYNC_CLOCK_HH
#define CLOCKSYNC_CLOCK_HH

#include "common/random.hh"
#include "common/types.hh"
#include "sim/simulator.hh"

namespace clocksync {

using common::Duration;
using common::Time;

/** Abstract node-local clock. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** The node's current LocalTime. */
    virtual Time localNow() = 0;

    /** This clock's current true offset (LocalTime - TrueTime). */
    virtual Duration currentOffset() const = 0;
};

/** A clock with zero skew; used as grandmaster and in skew-free tests. */
class PerfectClock : public Clock
{
  public:
    explicit PerfectClock(sim::Simulator &sim) : sim_(sim) {}

    Time localNow() override { return sim_.now(); }
    Duration currentOffset() const override { return 0; }

  private:
    sim::Simulator &sim_;
};

/** An oscillator with constant drift, disciplined by applyCorrection. */
class DriftClock : public Clock
{
  public:
    struct Params
    {
        /** Std-dev of the per-node constant drift rate, in ppm. */
        double driftPpmSigma = 5.0;
        /** Std-dev of the offset at simulation start. */
        Duration initialOffsetSigma = 0;
    };

    /**
     * @param sim Owning simulator (source of TrueTime).
     * @param p   Oscillator parameters.
     * @param rng Used once at construction to draw drift and offset.
     */
    DriftClock(sim::Simulator &sim, const Params &p, common::Rng &rng);

    Time localNow() override;
    Duration currentOffset() const override;

    /**
     * Apply a correction from a sync exchange: the protocol measured
     * this clock to be @p measured_offset ahead of the reference, and
     * the clock slews by -gain * measured_offset.
     *
     * @param measured_offset The (noisy) measured offset.
     * @param gain            Fraction of the measurement corrected
     *                        (1.0 = step fully; NTP-style slewing uses
     *                        less).
     */
    void applyCorrection(Duration measured_offset, double gain = 1.0);

    /**
     * Frequency (syntonization) adjustment: add @p delta_ppm to the
     * servo's rate correction. A PTP servo estimates the oscillator's
     * frequency error from successive offset measurements and trims it
     * here; without this, drift between syncs dominates the residual
     * skew for precise disciplines.
     */
    void adjustRatePpm(double delta_ppm);

    double driftPpm() const { return driftPpm_; }

    // ------------------------------------------------------------------
    // Chaos mutation hooks (see common/chaos.hh).
    // ------------------------------------------------------------------

    /**
     * Step (leap) the clock by @p delta ns. A negative step is
     * absorbed by the monotonicity clamp: localNow() holds its last
     * value until TrueTime catches up, exactly how a slewing daemon
     * hides a backwards step. The sync servo will observe the jump at
     * the next exchange and mis-attribute part of it to frequency
     * error, producing the decaying skew oscillation real PTP
     * deployments see after a step.
     */
    void step(Duration delta);

    /**
     * Freeze the clock's output (a stuck oscillator/counter): while
     * stuck, localNow() keeps returning the freeze value and sync
     * corrections are ignored. Unsticking re-anchors the drift model
     * at the frozen value, so the clock resumes from behind and the
     * protocol has to pull it back in.
     */
    void setStuck(bool stuck);
    bool stuck() const { return stuck_; }

    /** Runaway oscillator: add @p delta_ppm of *physical* drift (the
     *  servo does not know, and has to fight it via exchanges). */
    void injectDriftPpm(double delta_ppm);

  private:
    sim::Simulator &sim_;
    double driftPpm_;
    double servoPpm_ = 0.0;
    /** Offset at the time of the last correction. */
    double offsetAtSync_;
    Time lastSyncTrue_ = 0;
    Time lastReturned_ = 0;
    bool stuck_ = false;
};

} // namespace clocksync

#endif // CLOCKSYNC_CLOCK_HH
