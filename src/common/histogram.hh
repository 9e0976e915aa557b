/**
 * @file
 * Latency histogram with approximate quantiles.
 *
 * Uses log-spaced buckets (HdrHistogram-style: linear sub-buckets
 * within power-of-two ranges) so that recording is O(1), memory is
 * bounded, and relative error of reported quantiles is < 2 / 64.
 *
 * Storage holds only the octaves (power-of-two ranges of 64 buckets)
 * a histogram has seen: a 50-byte octave->slot index, room for 8
 * octaves inline (4 KB, a 256x value range) and a 512 B block per
 * further octave. The further blocks are elements of one overflow
 * vector whose capacity goes 4, 8, 16, 32, 42 blocks, so the rare
 * histogram that spills allocates a few times, not once per octave.
 * The bucket math is that of a dense 50 x 64 array, and every walk
 * visits octaves in index order, so counts, quantiles and their
 * error are exactly those of the dense layout; a histogram that
 * spans all 50 octaves costs about what the dense array did.
 */

#ifndef COMMON_HISTOGRAM_HH
#define COMMON_HISTOGRAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace common {

class Histogram
{
  public:
    Histogram();
    /**
     * Copies are memberwise. Assigning allocates nothing when this
     * histogram has room for as many overflow octaves as @p other
     * (e.g. a snapshot re-taken each window). There are no move
     * operations, so a move copies: a moved-from overflow vector
     * would leave the slot index pointing past its end.
     */
    Histogram(const Histogram &) = default;
    Histogram &operator=(const Histogram &) = default;

    /** Record one sample (negative samples clamp to zero). */
    void record(std::int64_t value);

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Zero every count; the octaves' storage is kept for reuse. */
    void reset();

    /**
     * Replace this histogram's contents with the difference
     * `cur - prev`, where @p prev is an earlier snapshot of @p cur
     * (bucket counts monotonically non-decreasing between the two).
     * If @p cur has fewer samples than @p prev (it was reset in
     * between), the delta is @p cur itself. Allocates nothing once
     * this histogram holds every octave @p cur holds. min/max of the
     * delta are approximated from the populated bucket bounds.
     */
    void assignDelta(const Histogram &cur, const Histogram &prev);

    std::uint64_t count() const { return count_; }
    std::int64_t min() const;
    std::int64_t max() const { return max_; }
    double mean() const;

    /**
     * Approximate quantile, q in [0, 1]. Returns 0 when empty.
     * Linearly interpolates within the containing bucket, clamped to
     * the observed [min, max] range.
     */
    std::int64_t quantile(double q) const;

    std::int64_t p50() const { return quantile(0.50); }
    std::int64_t p95() const { return quantile(0.95); }
    std::int64_t p99() const { return quantile(0.99); }
    std::int64_t p999() const { return quantile(0.999); }

    /** One-line summary (interpreting samples as nanoseconds). */
    std::string summary() const;

    /** Bytes this histogram occupies: the object plus the capacity
     *  of its overflow vector. */
    std::size_t memoryBytes() const;

  private:
    static constexpr int kSubBucketBits = 6; // 64 sub-buckets per octave
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kOctaves = 50;
    static constexpr int kInlineOctaves = 8;
    static constexpr std::uint8_t kNoSlot = 0xff;

    using Octave = std::array<std::uint64_t, kSubBuckets>;

    static int bucketIndex(std::int64_t value);
    static std::int64_t bucketMidpoint(int index);
    static std::int64_t bucketLower(int index);
    static std::int64_t bucketWidth(int index);

    /** The 64 counters of slot @p slot. */
    std::uint64_t *slotCounts(std::uint8_t slot);
    const std::uint64_t *slotCounts(std::uint8_t slot) const;
    /** The counts of @p octave, given a zeroed slot first if it has
     *  none. */
    std::uint64_t *octaveCounts(int octave);
    /** Zero the counts of every slot in use, keeping the slots. */
    void clearCounts();

    std::uint64_t count_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    double sum_ = 0.0;
    std::array<std::uint8_t, kOctaves> slot_; ///< octave -> slot
    std::uint8_t slotsUsed_ = 0;
    std::vector<Octave> overflow_; ///< slots 8, 9, ...
    /** Slots 0-7; those from slotsUsed_ on are all zero. */
    std::array<Octave, kInlineOctaves> inline_{};
};

} // namespace common

#endif // COMMON_HISTOGRAM_HH
