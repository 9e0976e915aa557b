/**
 * @file
 * Placement in erase blocks of the raw device: the medium under both
 * MFTL's KV layer and SFTL's LBA map.
 *
 * Pages are written log-structured. Each write stream has its own open
 * block, filled in page order; when it is full the stream opens the
 * least-worn free block (wear-levelling). MFTL writes one stream (user
 * tuples and relocations share the pack buffer); SFTL writes two, so
 * pages moved by GC do not mix with user writes. A block is a GC
 * candidate once it is neither free, nor open in any stream, nor
 * awaiting a program.
 */

#ifndef FTL_FLASH_PAGES_HH
#define FTL_FLASH_PAGES_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "flash/ssd.hh"
#include "ftl/free_blocks.hh"
#include "ftl/multi_version_kv.hh"

namespace ftl {

class FlashPages
{
  public:
    using Device = flash::SsdDevice;
    using Addr = flash::PageAddr;
    /** A read returns the device's records in place, valid while
     *  their block is pinned. */
    using Page = flash::PageRecords;

    /** Name and stats of the KV layer on this medium (MFTL). */
    static constexpr const char *kName = "mftl";
    static constexpr KvStatNames kStats{
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
     *  are reclaimed eagerly as the watermark advances: MFTL's
     *  collector keeps a quarter of the blocks free. */
    static constexpr double kGcTargetFraction = 0.25;

    explicit FlashPages(flash::SsdDevice &device, std::size_t streams = 1)
        : device_(device),
          pendingPrograms_(device.geometry().numBlocks, 0),
          free_(device.geometry().numBlocks),
          open_(streams)
    {
        for (std::uint32_t b = 0; b < units(); ++b)
            release(b);
    }

    static std::uint32_t unitOf(flash::PageAddr addr) { return addr.block; }
    static flash::PageRecords records(Page page) { return page; }

    /** Fresh blocks a pass relocating @p live items may consume: a
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
    std::size_t freeUnits() const { return free_.size(); }

    /** The next page of @p stream's open block; when it is full, open
     *  the least-worn free block if at least @p min_free are free. */
    std::optional<flash::PageAddr>
    tryAllocate(std::size_t stream, std::size_t min_free)
    {
        Cursor &open = open_[stream];
        if (open.block < 0 || open.next >= pagesPerUnit()) {
            if (free_.size() < min_free)
                return std::nullopt;
            open.block = free_.pop();
            open.next = 0;
        }
        const flash::PageAddr addr{static_cast<std::uint32_t>(open.block),
                                   open.next++};
        ++pendingPrograms_[addr.block];
        return addr;
    }

    auto
    write(flash::PageAddr addr, flash::PageData page)
    {
        return device_.programPage(addr, std::move(page));
    }
    void written(flash::PageAddr addr) { --pendingPrograms_[addr.block]; }
    /** The programmed page's contents, without a timed read. */
    flash::PageRecords
    peek(flash::PageAddr addr) const
    {
        return device_.peekPage(addr);
    }
    auto read(flash::PageAddr addr) { return device_.readPage(addr); }

    /** A read pin makes GC's erase of the block wait for the read. */
    void pin(std::uint32_t block) { device_.pinBlock(block); }
    void unpin(std::uint32_t block) { device_.unpinBlock(block); }

    /** Neither free, nor open in any stream, nor awaiting a program. */
    bool
    collectable(std::uint32_t block) const
    {
        if (free_.contains(block) || pendingPrograms_[block] != 0)
            return false;
        for (const Cursor &open : open_) {
            if (open.block == static_cast<std::int64_t>(block))
                return false;
        }
        return true;
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
        std::fill(open_.begin(), open_.end(), Cursor{});
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
    /** A stream's open block and its next page. */
    struct Cursor
    {
        std::int64_t block = -1;
        std::uint32_t next = 0;
    };

    flash::SsdDevice &device_;
    /** Programs issued but whose mapping update is still pending. */
    std::vector<std::uint32_t> pendingPrograms_;
    FreeBlockPool free_;
    std::vector<Cursor> open_;
};

} // namespace ftl

#endif // FTL_FLASH_PAGES_HH
