/**
 * @file
 * VFTL: the paper's baseline — the multi-version key-value layer
 * (multi_version_kv.hh) stacked *on top of* a generic single-version
 * FTL (section 5.1), with its own lookup, request handling and garbage
 * collection, separate from the FTL's.
 *
 * The layering costs are exactly the ones Table 1 measures:
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

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ftl/multi_version_kv.hh"
#include "ftl/sftl.hh"

namespace ftl {

/** VFTL's placement: one page of tuples per logical block of an Sftl,
 *  allocated first-freed first. */
class SftlLbas
{
  public:
    using Device = Sftl;
    using Addr = Lba;
    /** A read returns a copy of the logical block. */
    using Page = std::optional<flash::PageData>;

    static constexpr const char *kName = "vftl";
    static constexpr KvStatNames kStats{
        .gcRemapped = "vftl.gc_remapped",
        .gcVictims = "vftl.gc_victims",
        .gets = "vftl.gets",
        .puts = "vftl.puts",
        .versionsPruned = "vftl.versions_pruned",
        .getLatency = "vftl.get_latency",
        .putLatency = "vftl.put_latency",
        .unitsWritten = "vftl.lbas_written",
        .gcReads = "vftl.gc_lba_reads",
        .gcReclaims = "vftl.gc_trims",
    };

    /** A GC pass takes at most 256 victim LBAs and stops once it nets
     *  64 free LBAs. */
    static constexpr std::size_t kMaxVictims = 256;
    static constexpr std::size_t kNetUnits = 64;
    /** The split stack keeps only its 10% reserve working room (the
     *  paper's configuration); compare MFTL's integrated
     *  watermark-driven target. */
    static constexpr double kGcTargetFraction = 0.15;

    explicit SftlLbas(Sftl &sftl)
        : sftl_(sftl),
          pendingWrite_(sftl.logicalBlocks(), false),
          isFree_(sftl.logicalBlocks(), false)
    {
        for (std::uint32_t lba = 0; lba < units(); ++lba)
            release(lba);
    }

    static std::uint32_t unitOf(Lba lba)
    {
        return static_cast<std::uint32_t>(lba);
    }
    /** A block read of an unmapped LBA holds no records. */
    static flash::PageRecords
    records(const Page &page)
    {
        return page ? flash::PageRecords(page->records)
                    : flash::PageRecords();
    }

    /** Fresh LBAs a pass relocating @p live tuples consumes. */
    static std::uint64_t
    projectedUnits(std::uint64_t live, std::uint64_t per_lba)
    {
        return (live + per_lba - 1) / per_lba;
    }

    std::uint32_t
    units() const
    {
        return static_cast<std::uint32_t>(sftl_.logicalBlocks());
    }
    std::uint32_t pagesPerUnit() const { return 1; }
    std::size_t freeUnits() const { return free_.size(); }

    /** The first-freed LBA, if at least @p min_free are free (one
     *  write stream). */
    std::optional<Lba>
    tryAllocate(std::size_t /* stream */, std::size_t min_free)
    {
        if (free_.size() < min_free)
            return std::nullopt;
        const std::uint32_t lba = free_.front();
        free_.pop_front();
        isFree_[lba] = false;
        pendingWrite_[lba] = true;
        return lba;
    }

    auto
    write(Lba lba, flash::PageData page)
    {
        return sftl_.write(lba, std::move(page));
    }
    void written(Lba lba) { pendingWrite_[unitOf(lba)] = false; }
    /** The written block's tuples, without a timed read. */
    flash::PageRecords peek(Lba lba) const { return sftl_.peek(lba); }
    /** Second mapping step: LBA -> physical page, inside SFTL. */
    auto read(Lba lba) { return sftl_.read(lba); }

    /** Reads copy the block out of SFTL, which remaps under them
     *  itself: nothing to pin. */
    void pin(std::uint32_t) {}
    void unpin(std::uint32_t) {}

    /** Neither free, nor awaiting its write, and mapped below. */
    bool
    collectable(std::uint32_t lba) const
    {
        return !isFree_[lba] && !pendingWrite_[lba] && sftl_.mapped(lba);
    }

    /** Greedy by liveness. */
    std::uint64_t
    victimCost(std::uint32_t, std::uint32_t live) const
    {
        return live;
    }

    template <typename Visit>
    void
    forEachPage(std::uint32_t lba, Visit &&visit) const
    {
        visit(Lba{lba});
    }

    auto reclaim(std::uint32_t lba) { return sftl_.trim(lba); }
    void
    release(std::uint32_t lba)
    {
        free_.push_back(lba);
        isFree_[lba] = true;
    }

    /** Forget all placement state and visit every mapped LBA in
     *  address order; unmapped ones return to the free list. */
    template <typename Visit>
    void
    scan(Visit &&visit)
    {
        std::fill(pendingWrite_.begin(), pendingWrite_.end(), false);
        std::fill(isFree_.begin(), isFree_.end(), false);
        free_.clear();
        for (std::uint32_t lba = 0; lba < units(); ++lba) {
            if (sftl_.mapped(lba))
                visit(Lba{lba}, sftl_.peek(lba));
            else
                release(lba);
        }
    }

  private:
    Sftl &sftl_;
    std::vector<bool> pendingWrite_;
    /** Membership bitmap of free_, for the victim scan. */
    std::vector<bool> isFree_;
    std::deque<std::uint32_t> free_;
};

using Vftl = MultiVersionKv<SftlLbas>;
extern template class MultiVersionKv<SftlLbas>;

} // namespace ftl

#endif // FTL_VFTL_HH
