/**
 * @file
 * VFTL: the paper's baseline — a multi-version key-value layer built
 * *on top of* a generic single-version FTL (section 5.1), with its own
 * lookup, request handling and garbage collection, separate from the
 * FTL's.
 *
 * The duplication costs are exactly the ones Table 1 measures:
 *
 *  - two mapping steps (key -> LBA -> physical page) instead of one;
 *  - 10% capacity reserved at *two* levels (the KV layer holds back
 *    LBAs for its GC, and SFTL holds back physical pages for its GC),
 *    so less usable space and hotter garbage collection;
 *  - two garbage collectors generating device traffic: the KV layer
 *    rewrites logical blocks to compact dead versions, and SFTL then
 *    remaps physical pages underneath — the write amplification that
 *    depresses VFTL's GET latency and throughput under mixed
 *    workloads;
 *  - remapped tuples share the pack buffer with user puts, so heavier
 *    GC *shortens* the packing delay, which is why VFTL's PUT latency
 *    in Table 1 is lower than MFTL's.
 */

#ifndef FTL_VFTL_HH
#define FTL_VFTL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "ftl/pack_log.hh"
#include "ftl/sftl.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace ftl {

class Vftl : public KvBackend
{
  public:
    struct Config
    {
        common::Duration packTimeout = common::kMillisecond;
        /** Fraction of LBAs the KV layer reserves for its own GC. */
        double reserveFraction = 0.10;
        /** Free-LBA fraction the collector restores per pass. The
         *  split stack keeps only its 10% reserve working room (the
         *  paper's configuration); compare MFTL's integrated
         *  watermark-driven target. */
        double gcTargetFraction = 0.15;
        std::uint32_t recordSize = 512;
        /** Interval of the KV layer's watermark pruning sweep; as in
         *  MFTL, each sweep visits only the multi-version chains. */
        common::Duration watermarkSweepInterval =
            50 * common::kMillisecond;
        /** Pre-size the mapping table for this many keys (0 = grow). */
        std::uint64_t expectedKeys = 0;
    };

    Vftl(sim::Simulator &sim, Sftl &sftl, const Config &config);

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

    void start();

    std::size_t versionCount(Key key) const;
    std::size_t freeLbas() const { return freeLbas_.size(); }

    /**
     * Rebuild the KV layer's mapping by scanning every mapped logical
     * block in the FTL below, as a restarted storage server would.
     * Returns the number of tuples recovered. (Timing-free: models an
     * offline scan.)
     */
    std::size_t rebuildFromStore();

  private:
    struct Loc
    {
        Lba lba;
        std::uint16_t slot;
    };

    using Store = VersionStore<Loc>;
    using ChainRef = Store::ChainRef;

    void flushBatch(std::vector<Pending> batch);
    sim::Task<void> flushTask(std::vector<Pending> batch);
    sim::Task<void> admitUserWrite();
    sim::Task<Lba> allocateLba(bool has_relocation);

    bool needGc() const;
    void kickGc();
    sim::Task<void> gcOnce();
    sim::Task<void> watermarkSweep();
    std::int64_t pickVictim() const;

    void pruneChain(ChainRef chain);
    void dropEntry(const Store::Entry &entry);

    sim::Simulator &sim_;
    Sftl &sftl_;
    Config config_;

    Store map_;
    std::vector<std::uint32_t> liveRecords_;
    std::vector<bool> pendingWrite_;
    /** LBAs being compacted by the current GC pass. */
    std::vector<bool> victimized_;
    std::deque<Lba> freeLbas_;

    PackLog packLog_;
    Time watermark_ = 0;

    bool gcRunning_ = false;
    std::uint64_t gcLowWater_ = 0;
    std::uint64_t gcHighWater_ = 0;
    sim::Promise<bool> spaceFreed_;

    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle deletes_{stats_, "vftl.deletes"};
    common::CounterHandle gcLbaReads_{stats_, "vftl.gc_lba_reads"};
    common::CounterHandle gcRemapped_{stats_, "vftl.gc_remapped"};
    common::CounterHandle gcTrims_{stats_, "vftl.gc_trims"};
    common::CounterHandle gcVictims_{stats_, "vftl.gc_victims"};
    common::CounterHandle gets_{stats_, "vftl.gets"};
    common::CounterHandle lbasWritten_{stats_, "vftl.lbas_written"};
    common::CounterHandle puts_{stats_, "vftl.puts"};
    common::CounterHandle versionsPruned_{stats_, "vftl.versions_pruned"};
    common::HistogramHandle getLatency_{stats_, "vftl.get_latency"};
    common::HistogramHandle putLatency_{stats_, "vftl.put_latency"};
};

} // namespace ftl

#endif // FTL_VFTL_HH
