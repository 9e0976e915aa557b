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
 * Functional model: a page holds up to kRecordsPerPage records (packed
 * key-value tuples) in its slots of one record array over the whole
 * device. Byte layout is accounted for, not materialized. A slot is
 * constructed when its page is programmed and destroyed when its
 * block is erased. The array is never zero-filled, and an erase hands
 * back the OS pages wholly inside its block, so a large simulated
 * device costs host memory only for the pages that hold records and
 * the OS pages that straddle two blocks.
 */

#ifndef FLASH_SSD_HH
#define FLASH_SSD_HH

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/random.hh"
#include "common/small_vector.hh"
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

/** One packed tuple in a flash page: key/version identify it for the
 *  KV FTLs; every tuple accounts for kRecordSize bytes of its page.
 *  Storage is put-only: every record is a written version, and none
 *  marks a delete. */
struct Record
{
    Key key = 0;
    Version version;
    Value value;
};
static_assert(sizeof(Record) <= 56, "a page's eight slots fit 448 B");

/** The records a writer fills into one page; kept inline, so building
 *  or copying out a page never touches the heap. */
struct PageData
{
    common::SmallVector<Record, kRecordsPerPage> records;
};

/** A programmed page's records, in place on the device. */
using PageRecords = std::span<const Record>;

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
    ~SsdDevice();

    const Geometry &geometry() const { return geometry_; }

    /**
     * Read a programmed page. The returned records stay in place until
     * the block is erased; callers must hold a block read-pin (see
     * pinBlock) if a concurrent GC could erase it.
     */
    sim::Task<PageRecords> readPage(PageAddr addr);

    /** Program an erased page with at most kRecordsPerPage records.
     *  Pages within a block must be programmed in order (NAND
     *  constraint); violating this panics. */
    sim::Task<void> programPage(PageAddr addr, PageData data);

    /** Erase a whole block; all its pages become Erased and their
     *  records are destroyed. */
    sim::Task<void> eraseBlock(std::uint32_t block);

    PageState pageState(PageAddr addr) const;

    /**
     * Timing-free functional access to a programmed page's content,
     * for offline operations (recovery scans, tests) and for an FTL
     * reading back what its own program just stored. It models no
     * flash read, so it must not stand in for one on the simulated
     * path.
     */
    PageRecords peekPage(PageAddr addr) const;

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
    // Gray-failure injection hooks (chaos engine, see common/chaos.hh).
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
        std::uint32_t nextProgramPage = 0;
        std::uint32_t eraseCount = 0;
    };

    /** Index of @p addr in counts_. */
    std::size_t
    pageIndex(PageAddr addr) const
    {
        return static_cast<std::size_t>(addr.block) *
                   geometry_.pagesPerBlock +
               addr.page;
    }

    /** Page @p at's kRecordsPerPage slots in records_. */
    Record *
    slots(std::size_t at) const
    {
        return records_.get() + at * kRecordsPerPage;
    }

    /** Destroy the records of pages [@p first, @p last), leaving them
     *  Erased. */
    void clearPages(std::size_t first, std::size_t last);

    /** The record array starts on an OS page, so that an erase can
     *  hand a block's whole OS pages back (see eraseBlock). */
    static constexpr std::size_t kOsPage = 4096;

    /** Frees the record array's raw storage; clearPages destroys the
     *  records in it first. */
    struct FreeStorage
    {
        void
        operator()(Record *slots) const
        {
            ::operator delete(slots, std::align_val_t{kOsPage});
        }
    };

    /** counts_ value of an erased page. */
    static constexpr std::uint8_t kErased = 0xff;

    /** Acquire queue slot + channel, wait the service time. @p op
     *  ("read" | "program" | "erase") labels the trace span. */
    sim::Task<void> service(std::uint32_t block, common::Duration latency,
                            const char *op);

    /** One channel's share of a GC storm (see startGcStorm). */
    sim::Task<void> gcStormLoop(std::uint32_t channel);

    sim::Simulator &sim_;
    Geometry geometry_;
    std::vector<Block> blocks_;
    /** The page store, flat over the device: page i's slots are
     *  [i * kRecordsPerPage, (i + 1) * kRecordsPerPage), block b's
     *  pages [b * pagesPerBlock, (b + 1) * pagesPerBlock). Raw
     *  storage: only the first counts_[i] slots of a programmed page
     *  hold constructed records. */
    std::unique_ptr<Record, FreeStorage> records_;
    /** Records on each page, or kErased. */
    std::vector<std::uint8_t> counts_;
    std::vector<std::uint32_t> pins_;
    sim::Semaphore queue_;
    std::vector<std::unique_ptr<sim::Semaphore>> channels_;
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

    // Gray-failure state (written by chaos fault events).
    std::vector<double> channelFactor_;
    double retryProb_ = 0.0;
    std::uint32_t retryMax_ = 0;
    bool gcStorm_ = false;
    common::Rng faultRng_;
};

} // namespace flash

#endif // FLASH_SSD_HH
