/**
 * @file
 * MFTL: the paper's unified multi-version flash translation layer
 * (section 3.1, Contribution 3).
 *
 * A single in-DRAM mapping table maps each key directly to the
 * physical locations of its versions (no LBA indirection): key ->
 * list of <create-timestamp, physical page, slot>, sorted by
 * descending timestamp. New tuples are written log-structured through
 * a pack buffer (pack_log.hh); version management is integrated with
 * flash garbage collection:
 *
 *  - validity: a flash tuple is live iff the mapping table still
 *    references its exact <key, version, location>;
 *  - watermark GC (section 3.1): once every client's clock has passed
 *    the watermark, only the youngest version with stamp <= watermark
 *    plus all younger versions are kept; older tuples become dead in
 *    place and are never remapped;
 *  - flash GC: when free blocks fall below the reserve (10% of
 *    capacity), the block with the fewest live tuples is victimized
 *    (ties broken toward least-worn, providing wear-leveling); its
 *    live tuples are re-packed through the same pack buffer as user
 *    writes — "puts or remapped keys" share pages, as in the paper —
 *    and the block is erased once they are durable.
 */

#ifndef FTL_MFTL_HH
#define FTL_MFTL_HH

#include <cstdint>
#include <vector>

#include "flash/ssd.hh"
#include "ftl/free_blocks.hh"
#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "ftl/pack_log.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace ftl {

class Mftl : public KvBackend
{
  public:
    struct Config
    {
        /** Max time a tuple waits in the pack buffer (paper: 1 ms). */
        common::Duration packTimeout = common::kMillisecond;
        /** Fraction of blocks reserved for GC headroom (paper: 10%). */
        double reserveFraction = 0.10;
        /** Free-block fraction the integrated collector maintains:
         *  version management is fused with flash GC, so dead versions
         *  are reclaimed eagerly as the watermark advances. */
        double gcTargetFraction = 0.25;
        /** Accounted on-flash tuple size (paper: 512 B). */
        std::uint32_t recordSize = 512;
        /** Interval of the background watermark pruning sweep. Each
         *  sweep visits only the chains holding >= 2 versions (the
         *  mapping table's multi-version index), so its cost scales
         *  with those, not with the key count; reads and writes also
         *  prune the chain they touch. */
        common::Duration watermarkSweepInterval =
            50 * common::kMillisecond;
        /** Pre-size the mapping table for this many keys (0 = grow). */
        std::uint64_t expectedKeys = 0;
    };

    Mftl(sim::Simulator &sim, flash::SsdDevice &device,
         const Config &config);

    // KvBackend interface.
    sim::Task<GetResult> get(Key key, Version at) override;
    sim::Task<PutStatus> put(Key key, Value value, Version version) override;
    sim::Task<void> erase(Key key, Version version) override;
    void setWatermark(Time watermark) override;
    std::optional<Version> versionAt(Key key, Version at) override;
    bool multiVersion() const override { return true; }
    common::StatSet &stats() override { return stats_; }
    void reserveKeys(std::uint64_t keys) override { map_.reserveKeys(keys); }
    std::uint64_t dataPlaneBytes() const override
    {
        return map_.memoryBytes();
    }

    /** Start background processes (GC trigger loop, watermark sweep). */
    void start();

    /** Number of live versions of a key (tests/introspection). */
    std::size_t versionCount(Key key) const;

    /** Number of free (erased, unallocated) blocks. */
    std::size_t freeBlocks() const { return freeBlocks_.size(); }

    /**
     * Rebuild the mapping table by scanning all programmed pages, as a
     * restarted storage server would. Returns the number of tuples
     * recovered. (Timing-free: models an offline scan.)
     */
    std::size_t rebuildFromFlash();

  private:
    /** Physical locator of one tuple. */
    struct Loc
    {
        flash::PageAddr page;
        std::uint16_t slot;
    };

    using Store = VersionStore<Loc>;
    using ChainRef = Store::ChainRef;

    void flushBatch(std::vector<Pending> batch);
    sim::Task<void> flushTask(std::vector<Pending> batch);

    /** Block user writes while free space is critically low. */
    sim::Task<void> admitUserWrite();

    /** Allocate the next log page; may wait for GC to free space. */
    sim::Task<flash::PageAddr> allocatePage(bool has_relocation);

    /** True when the free pool is below the GC trigger level. */
    bool needGc() const;
    void kickGc();
    sim::Task<void> gcLoop();
    sim::Task<void> gcOnce();
    sim::Task<void> watermarkSweep();

    std::int32_t pickVictim() const;
    void pruneChain(ChainRef chain);
    void dropEntry(const Store::Entry &entry);

    sim::Simulator &sim_;
    flash::SsdDevice &device_;
    Config config_;

    Store map_;
    /** Live tuples per block (validity counters for GC). */
    std::vector<std::uint32_t> liveTuples_;
    /** Programs issued but whose mapping update is still pending. */
    std::vector<std::uint32_t> pendingPrograms_;
    /** Blocks in the current GC pass's victim set. */
    std::vector<bool> victimized_;

    FreeBlockPool freeBlocks_;
    std::int64_t openBlock_ = -1;
    std::uint32_t nextPage_ = 0;

    PackLog packLog_;
    Time watermark_ = 0;

    bool gcRunning_ = false;
    std::uint32_t gcLowWater_ = 0;
    std::uint32_t gcHighWater_ = 0;
    /** Resolved (and replaced) each time GC frees a block. */
    sim::Promise<bool> spaceFreed_;

    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle deletes_{stats_, "mftl.deletes"};
    common::CounterHandle gcErases_{stats_, "mftl.gc_erases"};
    common::CounterHandle gcPageReads_{stats_, "mftl.gc_page_reads"};
    common::CounterHandle gcRemapped_{stats_, "mftl.gc_remapped"};
    common::CounterHandle gcVictims_{stats_, "mftl.gc_victims"};
    common::CounterHandle gets_{stats_, "mftl.gets"};
    common::CounterHandle pagesWritten_{stats_, "mftl.pages_written"};
    common::CounterHandle puts_{stats_, "mftl.puts"};
    common::CounterHandle versionsPruned_{stats_, "mftl.versions_pruned"};
    common::HistogramHandle getLatency_{stats_, "mftl.get_latency"};
    common::HistogramHandle putLatency_{stats_, "mftl.put_latency"};
};

} // namespace ftl

#endif // FTL_MFTL_HH
