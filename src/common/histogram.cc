#include "common/histogram.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <sstream>

#include "common/types.hh"

namespace common {

Histogram::Histogram()
    : min_(std::numeric_limits<std::int64_t>::max())
{
    slot_.fill(kNoSlot);
}

int
Histogram::bucketIndex(std::int64_t value)
{
    const std::uint64_t v = value <= 0 ? 0 : static_cast<std::uint64_t>(value);
    if (v < kSubBuckets)
        return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    const int sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
    int idx = kSubBuckets + shift * kSubBuckets + sub;
    const int last = kOctaves * kSubBuckets - 1;
    return std::min(idx, last);
}

std::int64_t
Histogram::bucketMidpoint(int index)
{
    return bucketLower(index) + bucketWidth(index) / 2;
}

std::int64_t
Histogram::bucketLower(int index)
{
    if (index < kSubBuckets)
        return index;
    const int adjusted = index - kSubBuckets;
    const int shift = adjusted / kSubBuckets;
    const int sub = adjusted % kSubBuckets;
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(kSubBuckets + sub)) << shift);
}

std::int64_t
Histogram::bucketWidth(int index)
{
    if (index < kSubBuckets)
        return 1;
    const int shift = (index - kSubBuckets) / kSubBuckets;
    return static_cast<std::int64_t>(1ULL << shift);
}

std::uint64_t *
Histogram::slotCounts(std::uint8_t slot)
{
    return slot < kInlineOctaves ? inline_[slot].data()
                                 : overflow_[slot - kInlineOctaves].data();
}

const std::uint64_t *
Histogram::slotCounts(std::uint8_t slot) const
{
    return slot < kInlineOctaves ? inline_[slot].data()
                                 : overflow_[slot - kInlineOctaves].data();
}

std::uint64_t *
Histogram::octaveCounts(int octave)
{
    std::uint8_t &slot = slot_[static_cast<std::size_t>(octave)];
    if (slot == kNoSlot) {
        slot = slotsUsed_++;
        if (slot >= kInlineOctaves) {
            if (overflow_.size() == overflow_.capacity())
                overflow_.reserve(std::min<std::size_t>(
                    std::max<std::size_t>(4, 2 * overflow_.capacity()),
                    kOctaves - kInlineOctaves));
            overflow_.emplace_back(); // value-initialised: zeroed
        }
    }
    return slotCounts(slot);
}

void
Histogram::clearCounts()
{
    for (std::uint8_t s = 0; s < slotsUsed_; ++s)
        std::fill_n(slotCounts(s), kSubBuckets, 0);
}

void
Histogram::record(std::int64_t value)
{
    if (value < 0)
        value = 0;
    const int idx = bucketIndex(value);
    const int octave = idx >> kSubBucketBits;
    const int sub = idx & (kSubBuckets - 1);
    // One byte load: an inline slot is the common case; a new octave
    // (kNoSlot) and an overflow block take the out-of-line path.
    const std::uint8_t slot = slot_[static_cast<std::size_t>(octave)];
    if (slot < kInlineOctaves) [[likely]]
        ++inline_[slot][static_cast<std::size_t>(sub)];
    else
        ++octaveCounts(octave)[sub];
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value);
}

void
Histogram::merge(const Histogram &other)
{
    for (int o = 0; o < kOctaves; ++o) {
        if (other.slot_[o] == kNoSlot)
            continue;
        const std::uint64_t *src = other.slotCounts(other.slot_[o]);
        std::uint64_t *dst = octaveCounts(o);
        for (int i = 0; i < kSubBuckets; ++i)
            dst[i] += src[i];
    }
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    clearCounts();
    count_ = 0;
    min_ = std::numeric_limits<std::int64_t>::max();
    max_ = 0;
    sum_ = 0.0;
}

std::int64_t
Histogram::min() const
{
    return count_ == 0 ? 0 : min_;
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::int64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    // Octaves in index order (not slot order): bucket order.
    for (int o = 0; o < kOctaves; ++o) {
        if (slot_[o] == kNoSlot)
            continue;
        const std::uint64_t *counts = slotCounts(slot_[o]);
        for (int sub = 0; sub < kSubBuckets; ++sub) {
            const std::uint64_t c = counts[sub];
            if (c == 0)
                continue;
            if (static_cast<double>(seen + c) > target) {
                // Interpolate linearly within the bucket: rank
                // `target` falls among this bucket's `c` samples,
                // assumed evenly spread across the bucket's range.
                const double within = target - static_cast<double>(seen);
                const double frac = (within + 0.5) / static_cast<double>(c);
                const int idx = o * kSubBuckets + sub;
                const double value =
                    static_cast<double>(bucketLower(idx)) +
                    frac * static_cast<double>(bucketWidth(idx));
                return std::clamp(static_cast<std::int64_t>(value), min(),
                                  max_);
            }
            seen += c;
        }
    }
    return max_;
}

void
Histogram::assignDelta(const Histogram &cur, const Histogram &prev)
{
    assert(this != &cur && this != &prev);
    if (cur.count_ < prev.count_) {
        // cur was reset since the prev snapshot: delta is cur itself.
        *this = cur;
        return;
    }
    clearCounts();
    count_ = cur.count_ - prev.count_;
    sum_ = cur.sum_ - prev.sum_;
    min_ = std::numeric_limits<std::int64_t>::max();
    max_ = 0;
    for (int o = 0; o < kOctaves; ++o) {
        if (cur.slot_[o] == kNoSlot)
            continue;
        const std::uint64_t *c = cur.slotCounts(cur.slot_[o]);
        const std::uint64_t *p = prev.slot_[o] == kNoSlot
                                     ? nullptr
                                     : prev.slotCounts(prev.slot_[o]);
        std::uint64_t *d = octaveCounts(o);
        for (int sub = 0; sub < kSubBuckets; ++sub) {
            const std::uint64_t before = p == nullptr ? 0 : p[sub];
            d[sub] = c[sub] >= before ? c[sub] - before : 0;
            if (d[sub] != 0) {
                const int idx = o * kSubBuckets + sub;
                min_ = std::min(min_, bucketLower(idx));
                max_ = std::max(max_,
                                bucketLower(idx) + bucketWidth(idx) - 1);
            }
        }
    }
    if (count_ == 0) {
        max_ = 0;
        sum_ = 0.0;
    }
}

std::size_t
Histogram::memoryBytes() const
{
    return sizeof(Histogram) + overflow_.capacity() * sizeof(Octave);
}

std::string
Histogram::summary() const
{
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << "n=" << count_ << " mean=" << toMicros(
              static_cast<Duration>(mean()))
       << "us p50=" << toMicros(p50()) << "us p95=" << toMicros(p95())
       << "us p99=" << toMicros(p99()) << "us max=" << toMicros(max_)
       << "us";
    return os.str();
}

} // namespace common
