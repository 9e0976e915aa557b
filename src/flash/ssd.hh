/**
 * @file
 * Functional + timing model of a NAND flash SSD, in the spirit of the
 * LightNVM Open-Channel emulation the paper extends (section 5): the
 * host-side FTL issues raw page reads/programs and block erases; the
 * device enforces flash semantics (program-after-erase, sequential
 * programming within a block) and models service time.
 *
 * Timing model: the device admits at most `queueDepth` operations at
 * once (hardware queue). Admitted operations are dispatched to the
 * channel that owns their block (block % numChannels); each channel
 * services one operation at a time, FIFO. Service time is the
 * per-operation latency from the geometry. This reproduces the two
 * effects the paper's Table 1 depends on: read/program/erase latency
 * asymmetry and queueing delay under background GC traffic.
 *
 * Functional model: a page stores a small vector of records (packed
 * key-value tuples). Byte layout is accounted for, not materialized,
 * so large simulated devices stay cheap in host memory.
 */

#ifndef FLASH_SSD_HH
#define FLASH_SSD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "flash/geometry.hh"
#include "sim/future.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace flash {

using common::Key;
using common::Value;
using common::Version;

/**
 * One packed tuple in a flash page. `lba` carries the owning logical
 * block address when the page belongs to a block-device FTL (Sftl);
 * key/version identify the tuple for KV FTLs. `sizeBytes` is the
 * accounted on-flash footprint.
 */
struct Record
{
    Key key = 0;
    Version version;
    Value value;
    std::int64_t lba = -1;
    std::uint32_t sizeBytes = 512;
    bool tombstone = false;
};

/** Contents of one programmed page. */
struct PageData
{
    std::vector<Record> records;

    std::uint32_t
    bytes() const
    {
        std::uint32_t total = 0;
        for (const auto &r : records)
            total += r.sizeBytes;
        return total;
    }
};

/** Lifecycle state of a physical page. */
enum class PageState : std::uint8_t
{
    Erased,
    Programmed,
};

class SsdDevice
{
  public:
    SsdDevice(sim::Simulator &sim, const Geometry &geometry);

    const Geometry &geometry() const { return geometry_; }

    /**
     * Read a programmed page. The returned pointer is valid until the
     * block is erased; callers must hold a block read-pin (see
     * pinBlock) if a concurrent GC could erase it.
     */
    sim::Task<const PageData *> readPage(PageAddr addr);

    /** Program an erased page. Pages within a block must be programmed
     *  in order (NAND constraint); violating this panics. */
    sim::Task<void> programPage(PageAddr addr, PageData data);

    /** Erase a whole block; all its pages become Erased. */
    sim::Task<void> eraseBlock(std::uint32_t block);

    PageState pageState(PageAddr addr) const;

    /**
     * Timing-free functional access to a programmed page's content,
     * for offline operations (recovery scans, tests). Must not be used
     * on the simulated fast path.
     */
    const PageData &peekPage(PageAddr addr) const;

    /** Number of times the block has been erased (wear). */
    std::uint32_t eraseCount(std::uint32_t block) const;

    /** Spread between the most- and least-worn block. */
    std::uint32_t wearSpread() const;

    /**
     * Read-pin a block: eraseBlock waits until the pin count drops to
     * zero, so an in-flight read can never observe erased data.
     */
    void pinBlock(std::uint32_t block) { ++pins_[block]; }
    void unpinBlock(std::uint32_t block);

    common::StatSet &stats() { return stats_; }
    const common::StatSet &stats() const { return stats_; }

    /** Operations admitted past the hardware queue right now. */
    std::uint32_t inflightOps() const;
    /** Operations waiting for a hardware queue slot right now. */
    std::size_t queuedOps() const { return queue_.waiting(); }
    /** Channels currently servicing an operation. */
    std::uint32_t busyChannels() const;

    /** Trace emission handle; disabled until the cluster attaches it. */
    common::Tracer &tracer() { return trace_; }

    // ------------------------------------------------------------------
    // Gray-failure injection hooks (chaos engine; mutations only at
    // quiescent points, see common/chaos.hh).
    // ------------------------------------------------------------------

    /** One slow channel: multiply @p channel's service time by
     *  @p factor (1.0 = healthy again). */
    void setChannelLatencyFactor(std::uint32_t channel, double factor);

    /**
     * Read-retry storm: after a read's normal service, each extra
     * retry happens with probability @p probability (chained, at most
     * @p max_extra per read), burning another read-latency slot on the
     * same channel. 0 probability switches the storm off. Coin flips
     * come from the dedicated fault RNG (setFaultRng), never from a
     * simulator stream.
     */
    void setReadRetryStorm(double probability, std::uint32_t max_extra);

    /** Install the dedicated fault-randomness stream (forked from the
     *  chaos engine in construction order). */
    void setFaultRng(common::Rng rng) { faultRng_ = rng; }

    /** GC storm: background erase-length ops hog every channel until
     *  stopped, modelling garbage-collection backpressure. The ops go
     *  through the normal queue/channel path, so the queue-depth
     *  invariant still holds. */
    void startGcStorm();
    void stopGcStorm() { gcStorm_ = false; }
    bool gcStormActive() const { return gcStorm_; }

  private:
    struct Block
    {
        std::vector<PageData> pages;
        std::vector<PageState> states;
        std::uint32_t nextProgramPage = 0;
        std::uint32_t eraseCount = 0;
    };

    /** Acquire queue slot + channel, wait the service time. @p op
     *  ("read" | "program" | "erase") labels the trace span. */
    sim::Task<void> service(std::uint32_t block, common::Duration latency,
                            const char *op);

    /** One channel's share of a GC storm (see startGcStorm). */
    sim::Task<void> gcStormLoop(std::uint32_t channel);

    sim::Simulator &sim_;
    Geometry geometry_;
    std::vector<Block> blocks_;
    std::vector<std::uint32_t> pins_;
    sim::Semaphore queue_;
    std::vector<std::unique_ptr<sim::Mutex>> channels_;
    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle erases_{stats_, "ssd.erases"};
    common::CounterHandle gcStormOps_{stats_, "ssd.gc_storm_ops"};
    common::CounterHandle gcStorms_{stats_, "ssd.gc_storms"};
    common::CounterHandle grayChannelChanges_{
        stats_, "ssd.gray_channel_changes"};
    common::CounterHandle programs_{stats_, "ssd.programs"};
    common::CounterHandle readRetries_{stats_, "ssd.read_retries"};
    common::CounterHandle reads_{stats_, "ssd.reads"};
    common::HistogramHandle queueWait_{stats_, "ssd.queue_wait"};
    common::Tracer trace_;
    /** Per-channel op counters, pre-resolved (stable map nodes). */
    std::vector<common::Counter *> channelOps_;

    // Gray-failure state (written at quiescent points only).
    std::vector<double> channelFactor_;
    double retryProb_ = 0.0;
    std::uint32_t retryMax_ = 0;
    bool gcStorm_ = false;
    common::Rng faultRng_;
};

} // namespace flash

#endif // FLASH_SSD_HH
