/**
 * @file
 * SFTL: a generic single-version page-mapped FTL, the baseline
 * substrate of the paper's evaluation (section 5.1).
 *
 * SFTL exposes a logical block device of 4 KB logical blocks (LBAs).
 * Writes are log-structured on erase blocks (flash_pages.hh): each
 * write programs a freshly erased physical page and remaps the LBA;
 * the old page becomes invalid and is reclaimed by the shared greedy,
 * wear-aware space collector (space_collector.hh), whose relocation
 * step here copies each valid page of a victim. GC moves write their
 * own stream of blocks, apart from user writes. 10% of the physical
 * capacity is reserved for GC headroom, so the logical space is 90%
 * of the physical pages. Sftl itself keeps only the LBA map, the
 * page -> LBA owner table and the page move.
 *
 * Two consumers exist:
 *  - SingleVersionKv: keys mapped statically onto LBA slots with
 *    read-modify-write updates — the "SFTL" storage backend of
 *    Figure 6;
 *  - Vftl (vftl.hh): the multi-version KV layer MFTL runs on the raw
 *    device (multi_version_kv.hh), placed on SFTL's logical blocks, so
 *    its own log, mapping and GC stack on top of SFTL's — the paper's
 *    "VFTL" baseline with duplicated functionality at two levels.
 */

#ifndef FTL_SFTL_HH
#define FTL_SFTL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/ssd.hh"
#include "ftl/flash_pages.hh"
#include "ftl/kv_backend.hh"
#include "ftl/space_collector.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace ftl {

using Lba = std::int64_t;

class Sftl
{
  public:
    /** Fraction of physical pages reserved for GC headroom. */
    static constexpr double kReserveFraction = 0.10;
    /** The collector starts below 5% free blocks and restores 8%. */
    static constexpr double kGcTriggerFraction = 0.05;
    static constexpr double kGcTargetFraction = 0.08;

    Sftl(sim::Simulator &sim, flash::SsdDevice &device);

    /** Number of addressable logical blocks. */
    std::uint64_t logicalBlocks() const { return lbaMap_.size(); }

    /**
     * Read a logical block. Returns the page content, or nullopt if
     * the LBA has never been written (or was trimmed).
     */
    sim::Task<std::optional<flash::PageData>> read(Lba lba);

    /** Overwrite a logical block (log-structured remap). */
    sim::Task<PutStatus> write(Lba lba, flash::PageData data);

    /** Discard a logical block's contents. */
    sim::Task<void> trim(Lba lba);

    bool mapped(Lba lba) const;

    /** Timing-free functional read of a mapped LBA (recovery scans,
     *  tests, reading back a block just written). An unmapped LBA
     *  holds no records. */
    flash::PageRecords peek(Lba lba) const;

    common::StatSet &stats() { return stats_; }

  private:
    using Collector = SpaceCollector<FlashPages, Sftl>;
    friend Collector;

    /** Write streams: user writes and GC moves fill separate blocks. */
    static constexpr std::size_t kUserStream = 0;
    static constexpr std::size_t kMoveStream = 1;

    /** The collector's relocation step: move every valid page of the
     *  victims, in parallel. */
    sim::Task<void> relocate(const std::vector<std::uint32_t> &victims);
    sim::Task<void> moveValidPage(flash::PageAddr addr, sim::Quorum *done);

    /** Point @p lba at @p addr (kNoPage: unmap), invalidating the
     *  page it held. */
    void remap(Lba lba, flash::PageAddr addr);
    /** Physical owner of each page: LBA, or -1 when invalid. */
    std::int64_t &owner(flash::PageAddr addr);

    sim::Simulator &sim_;
    FlashPages blocks_;
    std::vector<flash::PageAddr> lbaMap_;
    std::vector<std::int64_t> owners_;

    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle gcPageReads_{stats_, "sftl.gc_page_reads"};
    common::CounterHandle gcPageWrites_{stats_, "sftl.gc_page_writes"};
    common::CounterHandle reads_{stats_, "sftl.reads"};
    common::CounterHandle trims_{stats_, "sftl.trims"};
    common::CounterHandle writes_{stats_, "sftl.writes"};

    Collector gc_;
};

/**
 * A single-version key-value store over SFTL: keys occupy fixed slots
 * (flash::kRecordsPerPage keys per logical block) and an update is a
 * read-modify-write of the owning block. Multi-versioning is
 * impossible, so snapshot reads are not supported: get() ignores the
 * `at` bound and returns the current version — which is exactly why
 * tardy read-only transactions abort on this backend in Figure 6.
 */
class SingleVersionKv : public KvBackend
{
  public:
    struct Config
    {
        /** Keys must be < capacityKeys (static slot mapping). */
        std::uint64_t capacityKeys = 0;
    };

    SingleVersionKv(sim::Simulator &sim, Sftl &sftl, const Config &config);

    sim::Task<GetResult> get(Key key, Version at) override;
    sim::Task<PutStatus> put(Key key, Value value, Version version) override;
    void setWatermark(Time watermark) override;
    common::StatSet &stats() override { return stats_; }

  private:
    /** Key of a slot no put has written: keys are < capacityKeys, so
     *  no stored key equals it, and a slot is live iff its key is the
     *  one the slot maps. */
    static constexpr Key kUnwrittenKey = ~Key{0};

    Lba lbaOf(Key key) const;
    std::uint32_t slotOf(Key key) const;
    sim::Semaphore &stripe(Lba lba);

    sim::Simulator &sim_;
    Sftl &sftl_;
    Config config_;
    /** Per-LBA write serialization (read-modify-write atomicity). */
    std::vector<std::unique_ptr<sim::Semaphore>> stripes_;
    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle gets_{stats_, "svkv.gets"};
    common::CounterHandle puts_{stats_, "svkv.puts"};
    common::CounterHandle staleRejects_{stats_, "svkv.stale_rejects"};
    common::HistogramHandle getLatency_{stats_, "svkv.get_latency"};
    common::HistogramHandle putLatency_{stats_, "svkv.put_latency"};
};

} // namespace ftl

#endif // FTL_SFTL_HH
