/**
 * @file
 * The single-SSD key-value micro-benchmark of Table 1: closed-loop
 * workers issue get/put requests directly against a storage backend
 * (no network, no transactions) for a configurable GET percentage,
 * measuring sustained throughput and per-op latency.
 */

#ifndef WORKLOAD_MICRO_HH
#define WORKLOAD_MICRO_HH

#include <memory>

#include "common/histogram.hh"
#include "common/random.hh"
#include "ftl/kv_backend.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

namespace workload {

struct MicroConfig
{
    /** Fraction of operations that are gets, in percent. */
    double getPercent = 100.0;
    std::uint64_t numKeys = 100'000;
    /** Closed-loop concurrency (outstanding requests). */
    std::uint32_t workers = 192;
    std::uint64_t seed = 3;
};

class MicroBench
{
  public:
    MicroBench(sim::Simulator &sim, ftl::KvBackend &backend,
               const MicroConfig &config);

    /** Pre-load every key (run the simulator to completion first). */
    void populate();

    /** Start the worker loops (then drive the simulator). */
    void start();

    void resetMeasurement();

    std::uint64_t gets() const { return gets_; }
    std::uint64_t puts() const { return puts_; }
    const common::Histogram &getLatency() const { return getLat_; }
    const common::Histogram &putLatency() const { return putLat_; }

    /** Requests completed per second of simulated time. */
    double
    throughput(common::Duration measured) const
    {
        return static_cast<double>(gets_ + puts_) /
               common::toSeconds(measured);
    }

  private:
    sim::Task<void> worker(common::Rng rng, common::ClientId id);
    sim::Task<void> watermarkLoop();

    sim::Simulator &sim_;
    ftl::KvBackend &backend_;
    MicroConfig config_;
    common::Rng rng_;
    std::uint64_t gets_ = 0;
    std::uint64_t puts_ = 0;
    common::Histogram getLat_;
    common::Histogram putLat_;
};

} // namespace workload

#endif // WORKLOAD_MICRO_HH
