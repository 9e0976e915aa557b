#include "workload/micro.hh"

#include <string>

#include "common/logging.hh"
#include "sim/future.hh"

namespace workload {

namespace {

/** Version-retention window: the watermark trails current time by
 *  this much (section 3.1's tunable window size). */
constexpr common::Duration kWatermarkWindow = 50 * common::kMillisecond;

} // namespace

MicroBench::MicroBench(sim::Simulator &sim, ftl::KvBackend &backend,
                       const MicroConfig &config)
    : sim_(sim), backend_(backend), config_(config), rng_(config.seed)
{
}

void
MicroBench::populate()
{
    // Pre-size the backend's mapping table: the load below inserts
    // every key exactly once, so this makes populate rehash-free.
    backend_.reserveKeys(config_.numKeys);
    const std::uint32_t loaders = 64;
    for (std::uint32_t w = 0; w < loaders; ++w) {
        sim::spawn([](MicroBench *self, std::uint64_t first,
                      std::uint64_t stride) -> sim::Task<void> {
            for (common::Key key = first; key < self->config_.numKeys;
                 key += stride) {
                (void)co_await self->backend_.put(
                    key, "init", common::Version{1, 0});
            }
        }(this, w, loaders));
    }
    sim_.run();
}

void
MicroBench::start()
{
    for (std::uint32_t w = 0; w < config_.workers; ++w)
        sim::spawn(worker(rng_.fork(), w + 1));
    sim::spawn(watermarkLoop());
}

sim::Task<void>
MicroBench::watermarkLoop()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, kWatermarkWindow / 4);
        const common::Time wm = sim_.now() - kWatermarkWindow;
        if (wm > 0)
            backend_.setWatermark(wm);
    }
}

void
MicroBench::resetMeasurement()
{
    gets_ = 0;
    puts_ = 0;
    getLat_.reset();
    putLat_.reset();
}

sim::Task<void>
MicroBench::worker(common::Rng rng, common::ClientId id)
{
    std::uint64_t serial = 0;
    while (!sim_.stopRequested()) {
        const common::Key key = rng.nextBounded(config_.numKeys);
        const common::Time start = sim_.now();
        if (rng.nextDouble() * 100.0 < config_.getPercent) {
            auto r = co_await backend_.getLatest(key);
            (void)r;
            ++gets_;
            getLat_.record(sim_.now() - start);
        } else {
            // Timestamped with current simulated time; the worker id
            // breaks ties between simultaneous writers.
            const common::Version version{sim_.now(), id};
            auto st = co_await backend_.put(
                key, "u" + std::to_string(++serial), version);
            if (st == ftl::PutStatus::DeviceFull)
                PANIC("micro-bench filled the device");
            ++puts_;
            putLat_.record(sim_.now() - start);
        }
    }
}

} // namespace workload
