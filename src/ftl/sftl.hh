/**
 * @file
 * SFTL: a generic single-version page-mapped FTL, the baseline
 * substrate of the paper's evaluation (section 5.1).
 *
 * SFTL exposes a logical block device of 4 KB logical blocks (LBAs).
 * Writes are log-structured: each write programs a freshly erased
 * physical page and remaps the LBA; the old page becomes invalid and
 * is reclaimed by a greedy, wear-aware garbage collector. 10% of the
 * physical capacity is reserved for GC headroom, so the logical space
 * is 90% of the physical pages.
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
#include "ftl/free_blocks.hh"
#include "ftl/kv_backend.hh"
#include "sim/future.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace ftl {

using Lba = std::int64_t;

class Sftl
{
  public:
    struct Config
    {
        /** Fraction of physical pages reserved for GC headroom. */
        double reserveFraction = 0.10;
        /** Free-space fraction the collector restores per pass
         *  (hysteresis target above the trigger). */
        double gcTargetFraction = 0.08;
    };

    Sftl(sim::Simulator &sim, flash::SsdDevice &device,
         const Config &config);

    /** Number of addressable logical blocks. */
    std::uint64_t logicalBlocks() const { return logicalBlocks_; }

    /** Logical block size in bytes (= flash page size). */
    std::uint32_t pageSize() const { return device_.geometry().pageSize; }

    /**
     * Read a logical block. Returns the page content, or nullopt if
     * the LBA has never been written (or was trimmed).
     */
    sim::Task<std::optional<flash::PageData>> read(Lba lba);

    /** Overwrite a logical block (log-structured remap). */
    sim::Task<PutStatus> write(Lba lba, flash::PageData data);

    /** An empty block to fill and write (SsdDevice::pageBuffer). */
    flash::PageData pageBuffer() { return device_.pageBuffer(); }

    /** Discard a logical block's contents. */
    sim::Task<void> trim(Lba lba);

    bool mapped(Lba lba) const;
    std::size_t freeBlocks() const { return freeBlocks_.size(); }

    /** Timing-free functional read of a mapped LBA (recovery scans,
     *  tests, reading back a block just written). Returns nullptr for
     *  unmapped LBAs. */
    const flash::PageData *peek(Lba lba) const;

    common::StatSet &stats() { return stats_; }

  private:
    sim::Task<flash::PageAddr> allocatePage(bool for_gc);
    bool needGc() const;
    void kickGc();
    sim::Task<void> gcOnce();
    /** Relocate one page of a GC victim (spawned in parallel). */
    sim::Task<void> moveValidPage(std::uint32_t vb, std::uint32_t pg,
                                  sim::Quorum *done);
    std::int32_t pickVictim() const;

    /** Physical owner of each page: LBA, or -1 when invalid. */
    std::int64_t &owner(flash::PageAddr addr);

    sim::Simulator &sim_;
    flash::SsdDevice &device_;
    Config config_;

    std::uint64_t logicalBlocks_;
    std::vector<flash::PageAddr> lbaMap_;
    std::vector<std::int64_t> owners_;
    std::vector<std::uint32_t> validPages_;
    std::vector<std::uint32_t> pendingPrograms_;
    std::vector<bool> victimized_;

    FreeBlockPool freeBlocks_;
    std::int64_t openBlock_ = -1;
    std::uint32_t nextPage_ = 0;
    std::int64_t gcOpenBlock_ = -1;
    std::uint32_t gcNextPage_ = 0;

    bool gcRunning_ = false;
    std::uint32_t gcLowWater_ = 0;
    std::uint32_t gcHighWater_ = 0;
    sim::Promise<bool> spaceFreed_;

    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle gcErases_{stats_, "sftl.gc_erases"};
    common::CounterHandle gcPageReads_{stats_, "sftl.gc_page_reads"};
    common::CounterHandle gcPageWrites_{stats_, "sftl.gc_page_writes"};
    common::CounterHandle gcVictims_{stats_, "sftl.gc_victims"};
    common::CounterHandle reads_{stats_, "sftl.reads"};
    common::CounterHandle trims_{stats_, "sftl.trims"};
    common::CounterHandle writes_{stats_, "sftl.writes"};
};

/**
 * A single-version key-value store over SFTL: keys occupy fixed slots
 * (recordsPerPage keys per logical block) and an update is a
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
        std::uint32_t recordSize = 512;
        /** Keys must be < capacityKeys (static slot mapping). */
        std::uint64_t capacityKeys = 0;
    };

    SingleVersionKv(sim::Simulator &sim, Sftl &sftl, const Config &config);

    sim::Task<GetResult> get(Key key, Version at) override;
    sim::Task<PutStatus> put(Key key, Value value, Version version) override;
    sim::Task<void> erase(Key key, Version version) override;
    void setWatermark(Time watermark) override;
    common::StatSet &stats() override { return stats_; }

  private:
    Lba lbaOf(Key key) const;
    std::uint32_t slotOf(Key key) const;
    sim::Mutex &stripe(Lba lba);

    sim::Simulator &sim_;
    Sftl &sftl_;
    Config config_;
    std::uint32_t recordsPerPage_;
    /** Per-LBA write serialization (read-modify-write atomicity). */
    std::vector<std::unique_ptr<sim::Mutex>> stripes_;
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
