/**
 * @file
 * The multi-version key-value layer of both MFTL (section 3.1) and
 * VFTL (section 5.1), written once over a placement *medium*.
 *
 * In the paper VFTL is the same multi-version logic as MFTL, stacked
 * on a generic FTL. Table 1's gap comes from that layering (two
 * mapping steps, two 10% reserves, two collectors), not from different
 * KV code, so the two share this layer:
 *
 *  - one mapping table maps each key to the locations of its versions:
 *    key -> list of <create-timestamp, unit address, slot>, sorted by
 *    descending timestamp. New tuples are written log-structured
 *    through a pack buffer (pack_log.hh);
 *  - validity: a tuple is live iff the mapping table still references
 *    its exact <key, version, location>;
 *  - watermark GC (section 3.1): once every client's clock has passed
 *    the watermark, only the youngest version with stamp <= watermark
 *    plus all younger versions are kept; older tuples become dead in
 *    place and are never remapped;
 *  - space GC: when free units fall below the reserve (10% of
 *    capacity), the shared collector (space_collector.hh) victimizes
 *    the units with the fewest live tuples in a batch; this layer's
 *    relocation step re-packs their live tuples through the same pack
 *    buffer as user writes ("puts or remapped keys" share pages, as in
 *    the paper), and each unit is reclaimed once they are durable;
 *  - write admission: user puts wait while free space is critically
 *    low, so they cannot starve the collector.
 *
 * The medium holds only placement: which unit a page of tuples goes
 * to, how it is written and read, which units may be victimized and
 * at what cost, how a victim is enumerated and reclaimed, and the
 * rebuild scan; plus its stat names and GC constants. FlashPages
 * (flash_pages.hh) places pages in erase blocks of the raw device;
 * SftlLbas (vftl.hh) places them in logical blocks of an Sftl, which
 * runs its own instance of the same collector underneath. The medium
 * is a compile-time parameter, so the get and put paths make no
 * indirect call.
 */

#ifndef FTL_MULTI_VERSION_KV_HH
#define FTL_MULTI_VERSION_KV_HH

#include <cstdint>
#include <vector>

#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "ftl/pack_log.hh"
#include "ftl/space_collector.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace ftl {

/** Stat names of one medium's KV layer (static storage: stat handles
 *  keep the pointer). */
struct KvStatNames
{
    // The shared operations, under the medium's prefix.
    const char *gcRemapped;
    const char *gcVictims;
    const char *gets;
    const char *puts;
    const char *versionsPruned;
    const char *getLatency;
    const char *putLatency;
    // Placement: units written, victim pages read, units reclaimed.
    const char *unitsWritten;
    const char *gcReads;
    const char *gcReclaims;
};

template <class Medium>
class MultiVersionKv : public KvBackend
{
  public:
    struct Config
    {
        /** Max time a tuple waits in the pack buffer (paper: 1 ms). */
        common::Duration packTimeout = common::kMillisecond;
    };

    /** Fraction of units reserved for GC headroom (paper: 10%): the
     *  collector's low-water mark; its target is the medium's. */
    static constexpr double kReserveFraction = 0.10;
    /** Interval of the background watermark pruning sweep. Each sweep
     *  visits only the chains holding >= 2 versions (the mapping
     *  table's multi-version index), so its cost scales with those,
     *  not with the key count; reads and writes also prune the chain
     *  they touch. */
    static constexpr common::Duration kWatermarkSweepInterval =
        50 * common::kMillisecond;

    MultiVersionKv(sim::Simulator &sim, typename Medium::Device &device,
                   const Config &config);

    // KvBackend interface.
    sim::Task<GetResult> get(Key key, Version at) override;
    sim::Task<PutStatus> put(Key key, Value value, Version version) override;
    void setWatermark(Time watermark) override;
    std::optional<Version> versionAt(Key key, Version at) override;
    common::StatSet &stats() override { return stats_; }
    void reserveKeys(std::uint64_t keys) override { map_.reserveKeys(keys); }
    std::uint64_t dataPlaneBytes() const override
    {
        return map_.memoryBytes();
    }

    /** Start the background watermark sweep. */
    void start() override;

    /** Number of live versions of a key (tests/introspection). */
    std::size_t versionCount(Key key) const
    {
        return map_.versionCount(key);
    }

    /** Number of free units (erased blocks, unallocated LBAs). */
    std::size_t freeUnits() const { return medium_.freeUnits(); }

    /**
     * Rebuild the mapping table by scanning every written unit of the
     * medium, as a restarted storage server would. Returns the number
     * of tuples recovered. (Timing-free: models an offline scan.)
     */
    std::size_t rebuild();

  private:
    using Addr = typename Medium::Addr;
    using Collector = SpaceCollector<Medium, MultiVersionKv>;
    friend Collector;

    /** Locator of one tuple: a page on the medium and its slot. */
    struct Loc
    {
        Addr addr;
        std::uint16_t slot;
    };

    using Store = VersionStore<Loc>;
    using ChainRef = typename Store::ChainRef;

    void flushBatch(std::vector<Pending> batch);
    sim::Task<void> flushTask(std::vector<Pending> batch);

    /** Block user writes while free space is critically low. */
    sim::Task<void> admitUserWrite();

    /** The collector's relocation step: re-pack the victims' live
     *  tuples and wait until they are durable. */
    sim::Task<void> relocate(const std::vector<std::uint32_t> &victims);
    sim::Task<void> watermarkSweep();

    void pruneChain(ChainRef chain);
    void dropEntry(const typename Store::Entry &entry);

    sim::Simulator &sim_;
    Medium medium_;
    Config config_;

    Store map_;
    PackLog packLog_;
    Time watermark_ = 0;

    /** A victim page and, once read, its contents. */
    struct Scan
    {
        Addr addr;
        typename Medium::Page page{};
    };
    /** The relocation's working sets. One pass runs at a time, so they
     *  are cleared between passes rather than made anew. */
    std::vector<Scan> scans_;
    std::vector<sim::Future<PutStatus>> acks_;

    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    static constexpr const KvStatNames &kStats = Medium::kStats;
    common::CounterHandle gcReads_{stats_, kStats.gcReads};
    common::CounterHandle gcRemapped_{stats_, kStats.gcRemapped};
    common::CounterHandle gets_{stats_, kStats.gets};
    common::CounterHandle unitsWritten_{stats_, kStats.unitsWritten};
    common::CounterHandle puts_{stats_, kStats.puts};
    common::CounterHandle versionsPruned_{stats_, kStats.versionsPruned};
    common::HistogramHandle getLatency_{stats_, kStats.getLatency};
    common::HistogramHandle putLatency_{stats_, kStats.putLatency};

    Collector gc_;
};

} // namespace ftl

#endif // FTL_MULTI_VERSION_KV_HH
