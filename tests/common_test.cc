/**
 * @file
 * Unit tests for common utilities: PRNG determinism, Zipf sampling,
 * histograms, stats, inline-capacity containers, and version ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/small_vector.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/zipf.hh"

using namespace common;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(1, 10);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 10);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values hit
}

TEST(Rng, GaussianMoments)
{
    Rng r(17);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = r.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(23);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (c1.next() == c2.next());
    EXPECT_LT(same, 3);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    Rng r(29);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 50);
}

TEST(Zipf, SkewConcentratesOnLowRanks)
{
    Rng r(31);
    ZipfSampler z(1000, 0.99);
    int top10 = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        top10 += (z.sample(r) < 10);
    // With alpha ~1 over 1000 keys, top-10 ranks get roughly 40% of mass.
    EXPECT_GT(top10, n / 4);
}

TEST(Zipf, HigherAlphaMoreSkew)
{
    Rng r1(37), r2(37);
    ZipfSampler lo(1000, 0.4), hi(1000, 0.99);
    int lo_top = 0, hi_top = 0;
    for (int i = 0; i < 50000; ++i) {
        lo_top += (lo.sample(r1) < 10);
        hi_top += (hi.sample(r2) < 10);
    }
    EXPECT_GT(hi_top, 2 * lo_top);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(100, 0.8);
    double sum = 0;
    for (std::uint64_t i = 0; i < 100; ++i)
        sum += z.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SamplesMatchPmf)
{
    Rng r(41);
    ZipfSampler z(50, 0.9);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    // Spot-check the head of the distribution.
    for (std::uint64_t k = 0; k < 5; ++k) {
        const double expect = z.pmf(k) * n;
        EXPECT_NEAR(counts[k], expect, expect * 0.15 + 50);
    }
}

TEST(ScrambledZipf, StaysInRange)
{
    Rng r(43);
    ScrambledZipf z(1000, 0.8, 99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(r), 1000u);
}

TEST(ScrambledZipf, HotKeysScattered)
{
    Rng r(47);
    ScrambledZipf z(1000, 0.99, 99);
    // The most popular key should not be key 0 (it is permuted).
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[z.sample(r)];
    const auto hottest = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    EXPECT_NE(hottest, 0u);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactForSmallValues)
{
    Histogram h;
    for (int i = 0; i < 64; ++i)
        h.record(i);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 63);
    EXPECT_EQ(h.count(), 64u);
    EXPECT_NEAR(h.mean(), 31.5, 1e-9);
    EXPECT_EQ(h.quantile(0.0), 0);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h;
    for (int i = 1; i <= 100000; ++i)
        h.record(i);
    // log-bucketed: relative error should be within ~3%.
    EXPECT_NEAR(h.p50(), 50000, 50000 * 0.04);
    EXPECT_NEAR(h.p99(), 99000, 99000 * 0.04);
}

TEST(Histogram, NegativeClampsToZero)
{
    Histogram h;
    h.record(-5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0);
}

TEST(Histogram, MergeCombines)
{
    Histogram a, b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10);
    EXPECT_GE(a.max(), 1000);
}

TEST(Histogram, LargeValuesDoNotOverflow)
{
    Histogram h;
    h.record(std::int64_t{1} << 40);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.quantile(1.0), 0);
}

TEST(Histogram, QuantileInterpolatesWithinBucket)
{
    // All mass in one wide bucket: [65536, 65536+1024). Interpolation
    // must spread quantiles across the bucket instead of returning one
    // constant for every q.
    Histogram h;
    for (int i = 0; i < 1024; ++i)
        h.record(65536 + i);
    EXPECT_LT(h.quantile(0.1), h.quantile(0.9));
    // Values stay clamped to the observed range.
    EXPECT_GE(h.quantile(0.0), h.min());
    EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, QuantileMonotoneInQ)
{
    Histogram h;
    Rng r(29);
    for (int i = 0; i < 20000; ++i)
        h.record(r.nextRange(1, 1'000'000));
    std::int64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const std::int64_t v = h.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST(Histogram, P999TracksTail)
{
    // 0.2% of samples are slow, so the 99.9th-percentile order
    // statistic lands inside the tail.
    Histogram h;
    for (int i = 0; i < 9980; ++i)
        h.record(100);
    for (int i = 0; i < 20; ++i)
        h.record(1'000'000);
    EXPECT_LT(h.p99(), 1000);
    EXPECT_GT(h.p999(), 10'000);
    EXPECT_LE(h.p999(), h.max());
}

TEST(Histogram, AssignDeltaIsBucketwiseDifference)
{
    Histogram cur, prev, delta;
    prev.record(10);
    prev.record(5000);
    cur = prev;
    cur.record(10); // one more small sample
    cur.record(777'777);
    delta.assignDelta(cur, prev);
    EXPECT_EQ(delta.count(), 2u);
    EXPECT_LE(delta.min(), 10);
    EXPECT_GE(delta.max(), 700'000);
}

TEST(Histogram, AssignDeltaHandlesReset)
{
    Histogram cur, prev, delta;
    prev.record(100);
    prev.record(200);
    prev.record(300);
    cur.record(42); // fewer samples than prev: counter was reset
    delta.assignDelta(cur, prev);
    EXPECT_EQ(delta.count(), 1u);
    EXPECT_NEAR(static_cast<double>(delta.p50()), 42.0, 1.0);
}

TEST(Histogram, AssignDeltaEmptyDelta)
{
    Histogram cur, prev, delta;
    cur.record(7);
    prev = cur;
    delta.record(999); // stale contents must be cleared
    delta.assignDelta(cur, prev);
    EXPECT_EQ(delta.count(), 0u);
    EXPECT_EQ(delta.quantile(0.5), 0);
}

namespace {

/**
 * The dense layout Histogram had before it stored only the octaves it
 * uses: all 50 x 64 buckets up front. Kept as the reference the sparse
 * layout must match byte for byte.
 */
class DenseHistogram
{
  public:
    void
    record(std::int64_t value)
    {
        if (value < 0)
            value = 0;
        ++buckets_[static_cast<std::size_t>(bucketIndex(value))];
        ++count_;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        sum_ += static_cast<double>(value);
    }

    void
    merge(const DenseHistogram &other)
    {
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        sum_ += other.sum_;
    }

    void reset() { *this = DenseHistogram(); }

    void
    assignDelta(const DenseHistogram &cur, const DenseHistogram &prev)
    {
        if (cur.count_ < prev.count_) {
            *this = cur;
            return;
        }
        count_ = cur.count_ - prev.count_;
        sum_ = cur.sum_ - prev.sum_;
        min_ = std::numeric_limits<std::int64_t>::max();
        max_ = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            const std::uint64_t c = cur.buckets_[i];
            const std::uint64_t p = prev.buckets_[i];
            const std::uint64_t d = c >= p ? c - p : 0;
            buckets_[i] = d;
            if (d != 0) {
                const int idx = static_cast<int>(i);
                min_ = std::min(min_, bucketLower(idx));
                max_ = std::max(max_,
                                bucketLower(idx) + bucketWidth(idx) - 1);
            }
        }
        if (count_ == 0) {
            max_ = 0;
            sum_ = 0.0;
        }
    }

    std::uint64_t count() const { return count_; }
    std::int64_t min() const { return count_ == 0 ? 0 : min_; }
    std::int64_t max() const { return max_; }
    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    std::int64_t
    quantile(double q) const
    {
        if (count_ == 0)
            return 0;
        q = std::clamp(q, 0.0, 1.0);
        const double target = q * static_cast<double>(count_ - 1);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            const std::uint64_t c = buckets_[i];
            if (c == 0)
                continue;
            if (static_cast<double>(seen + c) > target) {
                const double within = target - static_cast<double>(seen);
                const double frac = (within + 0.5) / static_cast<double>(c);
                const int idx = static_cast<int>(i);
                const double value =
                    static_cast<double>(bucketLower(idx)) +
                    frac * static_cast<double>(bucketWidth(idx));
                return std::clamp(static_cast<std::int64_t>(value), min(),
                                  max_);
            }
            seen += c;
        }
        return max_;
    }

    std::string
    summary() const
    {
        std::ostringstream os;
        os.precision(1);
        os << std::fixed << "n=" << count_ << " mean="
           << toMicros(static_cast<Duration>(mean()))
           << "us p50=" << toMicros(quantile(0.50))
           << "us p95=" << toMicros(quantile(0.95))
           << "us p99=" << toMicros(quantile(0.99))
           << "us max=" << toMicros(max_) << "us";
        return os.str();
    }

  private:
    static constexpr int kSubBucketBits = 6;
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kOctaves = 50;

    static int
    bucketIndex(std::int64_t value)
    {
        const std::uint64_t v =
            value <= 0 ? 0 : static_cast<std::uint64_t>(value);
        if (v < kSubBuckets)
            return static_cast<int>(v);
        const int msb = 63 - std::countl_zero(v);
        const int shift = msb - kSubBucketBits;
        const int sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
        const int idx = kSubBuckets + shift * kSubBuckets + sub;
        return std::min(idx, kOctaves * kSubBuckets - 1);
    }

    static std::int64_t
    bucketLower(int index)
    {
        if (index < kSubBuckets)
            return index;
        const int adjusted = index - kSubBuckets;
        const int shift = adjusted / kSubBuckets;
        const int sub = adjusted % kSubBuckets;
        return static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(kSubBuckets + sub)) << shift);
    }

    static std::int64_t
    bucketWidth(int index)
    {
        if (index < kSubBuckets)
            return 1;
        const int shift = (index - kSubBuckets) / kSubBuckets;
        return static_cast<std::int64_t>(1ULL << shift);
    }

    std::array<std::uint64_t, kOctaves * kSubBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_ = 0;
    double sum_ = 0.0;
};

/** A histogram and its dense reference, fed the same samples. */
struct HistPair
{
    Histogram sparse;
    DenseHistogram dense;

    void
    record(std::int64_t v)
    {
        sparse.record(v);
        dense.record(v);
    }
};

void
expectSameAsDense(const Histogram &h, const DenseHistogram &ref,
                  const std::string &where)
{
    SCOPED_TRACE(where);
    ASSERT_EQ(h.count(), ref.count());
    EXPECT_EQ(h.min(), ref.min());
    EXPECT_EQ(h.max(), ref.max());
    EXPECT_EQ(h.mean(), ref.mean());
    EXPECT_EQ(h.summary(), ref.summary());
    for (int i = 0; i <= 100; ++i) {
        const double q = i / 100.0;
        ASSERT_EQ(h.quantile(q), ref.quantile(q)) << "q=" << q;
    }
    EXPECT_EQ(h.p999(), ref.quantile(0.999));
}

/**
 * One sample whose octave lies in [lo, lo + 6] (octave k >= 1 holds
 * [64 << (k - 1), 128 << (k - 1))), with now and then a zero, a
 * negative or a value past the last bucket's range.
 */
std::int64_t
drawSample(Rng &r, int lo)
{
    const std::uint64_t kind = r.nextBounded(20);
    if (kind == 0)
        return 0;
    if (kind == 1)
        return -r.nextRange(1, 1'000'000);
    if (kind == 2)
        return r.nextRange(std::int64_t{1} << 56,
                           std::numeric_limits<std::int64_t>::max());
    const int octave = lo + static_cast<int>(r.nextBounded(7));
    if (octave == 0)
        return r.nextRange(0, 63);
    const std::int64_t base = std::int64_t{64} << (octave - 1);
    return base + r.nextRange(0, base - 1);
}

} // namespace

TEST(Histogram, SparseMatchesDenseReference)
{
    Rng r(2024);
    // Batches sweep octave windows out of index order, so first-touch
    // (slot) order differs from index order and overflow blocks hold
    // octaves below inline ones.
    HistPair h;
    for (int batch = 0; batch < 24; ++batch) {
        const int lo = (batch * 19) % 44; // windows [lo, lo + 6] in 0..49
        for (int i = 0; i < 400; ++i)
            h.record(drawSample(r, lo));
        expectSameAsDense(h.sparse, h.dense,
                          "batch " + std::to_string(batch));
    }

    // Merge both ways, with disjoint and with overlapping octaves.
    for (const auto &[alo, blo] : {std::pair{30, 2}, std::pair{10, 13}}) {
        HistPair a, b;
        for (int i = 0; i < 3000; ++i) {
            a.record(drawSample(r, alo));
            b.record(drawSample(r, blo));
        }
        HistPair ab = a, ba = b;
        ab.sparse.merge(b.sparse);
        ab.dense.merge(b.dense);
        ba.sparse.merge(a.sparse);
        ba.dense.merge(a.dense);
        const std::string tag =
            "octaves " + std::to_string(alo) + "/" + std::to_string(blo);
        expectSameAsDense(ab.sparse, ab.dense, "a.merge(b), " + tag);
        expectSameAsDense(ba.sparse, ba.dense, "b.merge(a), " + tag);
        expectSameAsDense(ab.sparse, ba.dense, "merge commutes, " + tag);
    }

    // reset() keeps the slots; recording afterwards starts clean.
    h.sparse.reset();
    h.dense.reset();
    expectSameAsDense(h.sparse, h.dense, "after reset");
    for (int i = 0; i < 2000; ++i)
        h.record(drawSample(r, 20));
    expectSameAsDense(h.sparse, h.dense, "reset then record");

    // Copy-assign over a histogram holding other octaves, copy- and
    // move-construct.
    HistPair other;
    for (int i = 0; i < 500; ++i)
        other.record(drawSample(r, 40));
    other.sparse = h.sparse;
    expectSameAsDense(other.sparse, h.dense, "copy-assign");
    const Histogram copied(h.sparse);
    expectSameAsDense(copied, h.dense, "copy-construct");
    Histogram moved(std::move(other.sparse));
    expectSameAsDense(moved, h.dense, "move-construct");

    // assignDelta: new samples in old and new octaves, over a delta
    // holding stale samples elsewhere.
    HistPair prev = h;
    for (int i = 0; i < 1500; ++i)
        h.record(drawSample(r, 3));
    HistPair delta;
    for (int i = 0; i < 100; ++i)
        delta.record(drawSample(r, 35));
    delta.sparse.assignDelta(h.sparse, prev.sparse);
    delta.dense.assignDelta(h.dense, prev.dense);
    expectSameAsDense(delta.sparse, delta.dense, "assignDelta");

    // ... against a snapshot missing octaves the delta has.
    HistPair empty;
    delta.sparse.assignDelta(h.sparse, empty.sparse);
    delta.dense.assignDelta(h.dense, empty.dense);
    expectSameAsDense(delta.sparse, delta.dense, "assignDelta vs empty");

    // ... and with cur reset since prev: the delta is cur itself.
    h.sparse.reset();
    h.dense.reset();
    for (int i = 0; i < 50; ++i)
        h.record(drawSample(r, 44));
    delta.sparse.assignDelta(h.sparse, prev.sparse);
    delta.dense.assignDelta(h.dense, prev.dense);
    expectSameAsDense(delta.sparse, delta.dense, "assignDelta after reset");
}

TEST(Histogram, FootprintFollowsOctavesUsed)
{
    EXPECT_EQ(Histogram().memoryBytes(), sizeof(Histogram));

    // fig8's link-delay shape, N(50 us, 10 us): 4-5 octaves, all inline.
    Histogram link;
    Rng r(8);
    for (int i = 0; i < 100'000; ++i)
        link.record(static_cast<std::int64_t>(r.nextGaussian(50'000, 10'000)));
    EXPECT_LE(link.memoryBytes(), 5u * 1024);

    // Every octave: the dense array's 50 x 64 counters, plus the slot
    // index, the fixed fields and the overflow blocks' pointers.
    Histogram wide;
    wide.record(0);
    for (int shift = 0; shift < 49; ++shift)
        wide.record(std::int64_t{64} << shift);
    constexpr std::size_t kDenseBytes = 50 * 64 * sizeof(std::uint64_t);
    EXPECT_GT(wide.memoryBytes(), kDenseBytes);
    EXPECT_LE(wide.memoryBytes(), kDenseBytes + 1024);
}

TEST(StatSet, CountersCreateOnUse)
{
    StatSet s;
    s.counter("a").inc();
    s.counter("a").inc(4);
    EXPECT_EQ(s.counterValue("a"), 5u);
    EXPECT_EQ(s.counterValue("missing"), 0u);
}

TEST(StatSet, MergeAddsCounters)
{
    StatSet a, b;
    a.counter("x").inc(2);
    b.counter("x").inc(3);
    b.counter("y").inc(1);
    a.merge(b);
    EXPECT_EQ(a.counterValue("x"), 5u);
    EXPECT_EQ(a.counterValue("y"), 1u);
}

TEST(StatSet, ViewLookupsNameTheSameEntry)
{
    // A view into a longer buffer: lookups compare only its bytes, and
    // only the first use stores a copy of the name.
    const std::string buffer = "milana.votes_commit.tail";
    const std::string_view name(buffer.data(), 19);
    StatSet s;
    Counter &first = s.counter(name);
    first.inc();
    EXPECT_EQ(&s.counter("milana.votes_commit"), &first);
    s.counter(std::string("milana.votes_commit")).inc(2);
    EXPECT_EQ(s.counterValue("milana.votes_commit"), 3u);
    EXPECT_EQ(s.counters().size(), 1u);
    EXPECT_EQ(s.counters().begin()->first, "milana.votes_commit");
    EXPECT_EQ(s.findCounter("milana.votes"), nullptr);
}

TEST(StatSet, HandleCreatesEntryOnFirstUseOnly)
{
    const auto json = [](const StatSet &set) {
        std::ostringstream os;
        common::JsonWriter w(os);
        set.toJson(w);
        return os.str();
    };
    StatSet empty;
    StatSet s;
    CounterHandle gets(s, "semel.gets");
    HistogramHandle wait(s, "semel.repl_wait");
    // Unused handles leave the set exactly as an empty one.
    EXPECT_EQ(s.dump(), "");
    EXPECT_EQ(json(s), json(empty));

    // The first use creates what counter(name)/histogram(name) would.
    gets.inc();
    gets.inc(2);
    StatSet byName;
    byName.counter("semel.gets").inc(3);
    EXPECT_EQ(s.dump(), byName.dump());
    EXPECT_EQ(json(s), json(byName));
    EXPECT_EQ(&gets.get(), &s.counter("semel.gets"));
    wait.record(40);
    byName.histogram("semel.repl_wait").record(40);
    EXPECT_EQ(json(s), json(byName));

    // reset() and many later inserts keep the bound entry.
    Counter *bound = &gets.get();
    s.reset();
    for (int i = 0; i < 10000; ++i) {
        s.counter("filler." + std::to_string(i)).inc();
        s.histogram("filler." + std::to_string(i)).record(i);
    }
    gets.inc(5);
    wait.record(7);
    EXPECT_EQ(&gets.get(), bound);
    EXPECT_EQ(s.counterValue("semel.gets"), 5u);
    EXPECT_EQ(s.findHistogram("semel.repl_wait")->count(), 1u);

    // merge() sees what the handles recorded.
    StatSet total;
    total.counter("semel.gets").inc(1);
    total.merge(s);
    EXPECT_EQ(total.counterValue("semel.gets"), 6u);
    EXPECT_EQ(total.findHistogram("semel.repl_wait")->count(), 1u);
    EXPECT_EQ(total.counters().size(), 10001u);
}

TEST(SmallVector, StaysInlineUpToCapacityThenSpills)
{
    SmallVector<std::string, 2> v;
    v.push_back("a");
    v.emplace_back("b");
    EXPECT_TRUE(v.isInline());
    v.push_back("c");
    EXPECT_FALSE(v.isInline());
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "c");
    v.insert(v.begin() + 1, std::string("x"));
    EXPECT_EQ(std::vector<std::string>(v.begin(), v.end()),
              (std::vector<std::string>{"a", "x", "b", "c"}));
}

TEST(SmallVector, CopyAndMoveKeepElementsInlineOrSpilled)
{
    for (const std::size_t n : {2u, 5u}) { // inline, then spilled
        SmallVector<std::string, 3> src;
        for (std::size_t i = 0; i < n; ++i)
            src.push_back("value-long-enough-to-leave-sso-" +
                          std::to_string(i));
        SmallVector<std::string, 3> copy(src);
        EXPECT_EQ(copy.size(), n);
        EXPECT_EQ(copy[n - 1], src[n - 1]);

        SmallVector<std::string, 3> moved(std::move(copy));
        EXPECT_EQ(moved.size(), n);
        EXPECT_EQ(moved[0], src[0]);
        EXPECT_TRUE(copy.empty()); // NOLINT: moved-from is empty
        EXPECT_TRUE(copy.isInline());

        SmallVector<std::string, 3> assigned;
        assigned.push_back("old");
        assigned = std::move(moved);
        EXPECT_EQ(assigned.size(), n);
        assigned = src;
        EXPECT_EQ(assigned[n - 1], src[n - 1]);
    }
}

TEST(SmallMap, IteratesInKeyOrderLikeStdMap)
{
    SmallMap<std::uint64_t, std::string, 4> small;
    std::map<std::uint64_t, std::string> reference;
    Rng rng(11);
    for (int i = 0; i < 50; ++i) { // well past the inline capacity
        const std::uint64_t key = rng.nextBounded(20);
        const std::string value = std::to_string(i);
        small[key] = value;
        reference[key] = value;
        ASSERT_EQ(small.size(), reference.size());
    }
    EXPECT_FALSE(small.isInline());
    auto it = reference.begin();
    for (const auto &[key, value] : small) {
        EXPECT_EQ(key, it->first);
        EXPECT_EQ(value, it->second);
        ++it;
    }
    EXPECT_EQ(small.find(reference.begin()->first)->second,
              reference.begin()->second);
    EXPECT_EQ(small.find(1000), small.end());
    small.clear();
    EXPECT_TRUE(small.empty());
}

TEST(Version, TotalOrder)
{
    Version a{100, 1}, b{100, 2}, c{200, 1};
    EXPECT_LT(a, b); // clientId breaks ties
    EXPECT_LT(b, c);
    EXPECT_LT(a, c);
    EXPECT_EQ(a, (Version{100, 1}));
}

TEST(Version, ZeroIsOldest)
{
    EXPECT_LT(Version::zero(), (Version{1, 0}));
    EXPECT_TRUE(Version::zero().isZero());
}

TEST(TimeHelpers, Conversions)
{
    EXPECT_DOUBLE_EQ(toMicros(kMillisecond), 1000.0);
    EXPECT_DOUBLE_EQ(toMillis(kSecond), 1000.0);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
}
