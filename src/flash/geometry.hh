/**
 * @file
 * Flash device geometry and timing parameters.
 *
 * Defaults reproduce the emulated Open-Channel SSD of the paper's
 * experimental setup (section 5): 4 KB pages, 32 pages per block,
 * 50 us page read, 100 us page program, 1 ms block erase, hardware
 * queue depth 128. Pages and tuples have the paper's fixed sizes, so a
 * page holds at most eight tuples.
 */

#ifndef FLASH_GEOMETRY_HH
#define FLASH_GEOMETRY_HH

#include <cstdint>

#include "common/types.hh"

namespace flash {

using common::Duration;

/** Page size in bytes (smallest read/program unit). */
inline constexpr std::uint32_t kPageSize = 4096;
/** Accounted on-flash size of one key-value tuple (paper: 512 B). */
inline constexpr std::uint32_t kRecordSize = 512;
/** Tuples one page holds. */
inline constexpr std::uint32_t kRecordsPerPage = kPageSize / kRecordSize;

struct Geometry
{
    /** Pages per erase block. */
    std::uint32_t pagesPerBlock = 32;
    /** Total number of erase blocks on the device. */
    std::uint32_t numBlocks = 1024;
    /** Independent flash channels/LUNs that service ops in parallel. */
    std::uint32_t numChannels = 32;
    /** Hardware queue depth: max ops admitted to the device at once. */
    std::uint32_t queueDepth = 128;

    Duration readLatency = 50 * common::kMicrosecond;
    Duration writeLatency = 100 * common::kMicrosecond;
    Duration eraseLatency = 1 * common::kMillisecond;

    std::uint64_t
    totalPages() const
    {
        return static_cast<std::uint64_t>(numBlocks) * pagesPerBlock;
    }

    std::uint64_t
    capacityBytes() const
    {
        return totalPages() * kPageSize;
    }

    /**
     * The paper's emulated SSD, scaled to hold roughly
     * @p data_bytes of live data at ~@p target_utilization occupancy.
     */
    static Geometry
    scaledFor(std::uint64_t data_bytes, double target_utilization = 0.6)
    {
        Geometry g;
        const std::uint64_t needed = static_cast<std::uint64_t>(
            static_cast<double>(data_bytes) / target_utilization);
        const std::uint64_t block_bytes =
            static_cast<std::uint64_t>(kPageSize) * g.pagesPerBlock;
        g.numBlocks = static_cast<std::uint32_t>(
            (needed + block_bytes - 1) / block_bytes);
        if (g.numBlocks < 64)
            g.numBlocks = 64;
        return g;
    }
};

/** Physical page address. */
struct PageAddr
{
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    auto operator<=>(const PageAddr &) const = default;
};

/** Sentinel for "no physical page". */
constexpr PageAddr kNoPage{0xffffffff, 0xffffffff};

} // namespace flash

#endif // FLASH_GEOMETRY_HH
