/**
 * @file
 * DRAM storage backend: a multi-version in-memory store with
 * persistent-memory-like access latencies (battery-backed DRAM or a
 * byte-addressable NVM, section 2.2: <= 100 ns - 1 us).
 *
 * Used by the paper's Figures 7 and 8 as the fastest backend; its fast
 * writes are precisely what makes it the most sensitive to clock skew
 * (Figure 1: spurious aborts appear when skew >> write latency).
 */

#ifndef FTL_DRAM_HH
#define FTL_DRAM_HH

#include "ftl/kv_backend.hh"
#include "ftl/mapping_table.hh"
#include "sim/future.hh"

namespace ftl {

class DramBackend : public KvBackend
{
  public:
    static constexpr common::Duration kReadLatency =
        200 * common::kNanosecond;
    static constexpr common::Duration kWriteLatency =
        500 * common::kNanosecond;

    explicit DramBackend(sim::Simulator &sim) : sim_(sim) {}

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

    std::size_t versionCount(Key key) const;

  private:
    struct Stored
    {
        Value value;
    };

    using Store = VersionStore<Stored>;

    sim::Simulator &sim_;
    Store map_;
    Time watermark_ = 0;
    common::StatSet stats_;
    // Stat handles, each bound at its first use.
    common::CounterHandle gets_{stats_, "dram.gets"};
    common::CounterHandle puts_{stats_, "dram.puts"};
};

} // namespace ftl

#endif // FTL_DRAM_HH
