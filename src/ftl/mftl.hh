/**
 * @file
 * MFTL: the paper's unified multi-version flash translation layer
 * (section 3.1, Contribution 3).
 *
 * A single in-DRAM mapping table maps each key directly to the
 * physical locations of its versions (no LBA indirection): the shared
 * multi-version layer (multi_version_kv.hh) placed straight on the raw
 * device. Version management is integrated with flash garbage
 * collection: the layer's collector victimizes erase blocks, choosing
 * the block with the fewest live tuples (ties broken toward
 * least-worn, providing wear-leveling), re-packs their live tuples
 * through the same pack buffer as user writes, and erases each block
 * once they are durable.
 */

#ifndef FTL_MFTL_HH
#define FTL_MFTL_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "flash/ssd.hh"
#include "ftl/free_blocks.hh"
#include "ftl/multi_version_kv.hh"

namespace ftl {

/** MFTL's placement: log pages in erase blocks of the raw device. */
class FlashPages
{
  public:
    using Device = flash::SsdDevice;
    using Addr = flash::PageAddr;
    /** A read returns the device's page, valid while its block is
     *  pinned. */
    using Page = const flash::PageData *;

    static constexpr const char *kName = "mftl";
    static constexpr KvStatNames kStats{
        .deletes = "mftl.deletes",
        .gcRemapped = "mftl.gc_remapped",
        .gcVictims = "mftl.gc_victims",
        .gets = "mftl.gets",
        .puts = "mftl.puts",
        .versionsPruned = "mftl.versions_pruned",
        .getLatency = "mftl.get_latency",
        .putLatency = "mftl.put_latency",
        .unitsWritten = "mftl.pages_written",
        .gcReads = "mftl.gc_page_reads",
        .gcReclaims = "mftl.gc_erases",
    };

    /** A GC pass takes at most 32 victim blocks and stops once it
     *  nets 12 free blocks. */
    static constexpr std::size_t kMaxVictims = 32;
    static constexpr std::size_t kNetUnits = 12;
    /** Version management is fused with flash GC, so dead versions
     *  are reclaimed eagerly as the watermark advances: the collector
     *  keeps a quarter of the blocks free. */
    static constexpr double kGcTargetFraction = 0.25;

    explicit FlashPages(flash::SsdDevice &device)
        : device_(device),
          pendingPrograms_(device.geometry().numBlocks, 0),
          free_(device.geometry().numBlocks)
    {
        for (std::uint32_t b = 0; b < units(); ++b)
            release(b);
    }

    static std::uint32_t unitOf(flash::PageAddr addr) { return addr.block; }

    /** Fresh blocks a pass relocating @p live tuples may consume: a
     *  block beyond the exact need plus one for the open block. */
    static std::uint64_t
    projectedUnits(std::uint64_t live, std::uint64_t per_block)
    {
        return (live + per_block) / per_block + 1;
    }

    std::uint32_t units() const { return device_.geometry().numBlocks; }
    std::uint32_t
    pagesPerUnit() const
    {
        return device_.geometry().pagesPerBlock;
    }
    std::uint32_t pageSize() const { return device_.geometry().pageSize; }
    std::size_t freeUnits() const { return free_.size(); }

    /** The open block's next page; when it is full, open the
     *  least-worn free block (wear-levelling) if at least @p min_free
     *  are free. */
    std::optional<flash::PageAddr>
    tryAllocate(std::size_t min_free)
    {
        if (openBlock_ < 0 || nextPage_ >= pagesPerUnit()) {
            if (free_.size() < min_free)
                return std::nullopt;
            openBlock_ = free_.pop();
            nextPage_ = 0;
        }
        const flash::PageAddr addr{static_cast<std::uint32_t>(openBlock_),
                                   nextPage_++};
        ++pendingPrograms_[addr.block];
        return addr;
    }

    auto
    write(flash::PageAddr addr, flash::PageData page)
    {
        return device_.programPage(addr, std::move(page));
    }
    void written(flash::PageAddr addr) { --pendingPrograms_[addr.block]; }
    auto read(flash::PageAddr addr) { return device_.readPage(addr); }

    /** A read pin makes GC's erase of the block wait for the read. */
    void pin(std::uint32_t block) { device_.pinBlock(block); }
    void unpin(std::uint32_t block) { device_.unpinBlock(block); }

    /** Neither free, nor open, nor awaiting a program. */
    bool
    collectable(std::uint32_t block) const
    {
        return !free_.contains(block) &&
               static_cast<std::int64_t>(block) != openBlock_ &&
               pendingPrograms_[block] == 0;
    }

    /** Greedy by liveness, least-worn among equals. */
    std::uint64_t
    victimCost(std::uint32_t block, std::uint32_t live) const
    {
        return (static_cast<std::uint64_t>(live) << 20) +
               device_.eraseCount(block);
    }

    template <typename Visit>
    void
    forEachPage(std::uint32_t block, Visit &&visit) const
    {
        for (std::uint32_t pg = 0; pg < pagesPerUnit(); ++pg) {
            const flash::PageAddr addr{block, pg};
            if (device_.pageState(addr) == flash::PageState::Programmed)
                visit(addr);
        }
    }

    auto reclaim(std::uint32_t block) { return device_.eraseBlock(block); }
    void
    release(std::uint32_t block)
    {
        free_.push(block, device_.eraseCount(block));
    }

    /** Forget all placement state and visit every programmed page in
     *  block order; blocks holding none return to the free pool. */
    template <typename Visit>
    void
    scan(Visit &&visit)
    {
        std::fill(pendingPrograms_.begin(), pendingPrograms_.end(), 0);
        free_.clear();
        openBlock_ = -1;
        nextPage_ = 0;
        for (std::uint32_t b = 0; b < units(); ++b) {
            bool any_programmed = false;
            forEachPage(b, [&](flash::PageAddr addr) {
                any_programmed = true;
                visit(addr, device_.peekPage(addr));
            });
            if (!any_programmed)
                release(b);
        }
    }

  private:
    flash::SsdDevice &device_;
    /** Programs issued but whose mapping update is still pending. */
    std::vector<std::uint32_t> pendingPrograms_;
    FreeBlockPool free_;
    std::int64_t openBlock_ = -1;
    std::uint32_t nextPage_ = 0;
};

using Mftl = MultiVersionKv<FlashPages>;
extern template class MultiVersionKv<FlashPages>;

} // namespace ftl

#endif // FTL_MFTL_HH
