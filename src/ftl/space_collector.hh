/**
 * @file
 * The flash FTLs' space collector, written once and run for SFTL, MFTL
 * and VFTL's KV layer (DESIGN.md section 6, mechanisms 1-3).
 *
 * A collector keeps the live-item count of every unit of its medium.
 * While the free pool is below its high-water mark, a pass selects a
 * batch of victims (mechanism 1), has its owner move their live items
 * elsewhere, then reclaims each victim and wakes whoever waits for
 * space. The owner's relocation step is mechanism 2: SFTL copies valid
 * pages, the KV layer re-packs live tuples, each in parallel. A pass
 * starts whenever the pool is below the high-water mark, not only at
 * the low one (mechanism 3: proactive collection with hysteresis).
 *
 * The medium (flash_pages.hh's FlashPages, vftl.hh's SftlLbas) places
 * pages, pins victims for the relocation and fixes the batch
 * constants; the owner fixes its water marks and stat names and
 * provides
 * `sim::Task<void> relocate(const std::vector<std::uint32_t> &victims)`,
 * which returns once no victim holds a live item. The collector never
 * tests which FTL owns it.
 */

#ifndef FTL_SPACE_COLLECTOR_HH
#define FTL_SPACE_COLLECTOR_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace ftl {

template <class Medium, class Owner>
class SpaceCollector
{
  public:
    using Addr = typename Medium::Addr;

    /** The owner's constants. */
    struct Params
    {
        /** Prefix of the collector's panics. */
        const char *name;
        /** Live items a full unit holds. */
        std::uint64_t perUnit;
        /** The low-water mark (at least 3 units) and the high-water
         *  mark a pass restores (at least 2 above it), as fractions of
         *  the medium's units. */
        double lowFraction;
        double highFraction;
        /** Counters of victims taken and of units reclaimed. */
        const char *victimsStat;
        const char *reclaimsStat;
    };

    SpaceCollector(sim::Simulator &sim, Medium &medium, Owner &owner,
                   common::StatSet &stats, const Params &params)
        : sim_(sim),
          medium_(medium),
          owner_(owner),
          name_(params.name),
          perUnit_(params.perUnit),
          live_(medium.units(), 0),
          victimized_(medium.units(), false),
          spaceFreed_(sim),
          victimsTaken_(stats, params.victimsStat),
          reclaims_(stats, params.reclaimsStat)
    {
        const auto units = static_cast<double>(medium.units());
        lowWater_ = std::max<std::uint64_t>(
            3, static_cast<std::uint64_t>(params.lowFraction * units));
        // Hysteresis: once triggered, collect up to the high-water
        // mark so occupancy does not ratchet up to the trigger level
        // and stay there (which would leave every victim nearly fully
        // live).
        highWater_ = std::max<std::uint64_t>(
            lowWater_ + 2,
            static_cast<std::uint64_t>(params.highFraction * units));
    }

    /** Live items on @p unit, kept by the owner. */
    std::uint32_t &live(std::uint32_t unit) { return live_[unit]; }
    std::uint64_t lowWater() const { return lowWater_; }

    /** Forget every live count and victim mark (rebuild). */
    void
    reset()
    {
        std::fill(live_.begin(), live_.end(), 0);
        std::fill(victimized_.begin(), victimized_.end(), false);
    }

    /** Start a pass unless one runs or the pool is at its target. */
    void
    kick()
    {
        // Proactive collection: pursue the high-water mark whenever
        // reclaimable space exists, instead of waiting for the cliff.
        if (!running_ && medium_.freeUnits() < highWater_) {
            running_ = true;
            sim::spawn(pass());
        }
    }

    /**
     * Kick a pass, panic once a caller waiting since @p since has
     * waited kAllocTimeout, and return an awaitable that resumes when a
     * unit is reclaimed or @p poll has passed.
     */
    auto
    waitForSpace(common::Time since, common::Duration poll)
    {
        kick();
        if (sim_.now() - since > kAllocTimeout)
            PANIC(name_ << ": device full — GC cannot free space "
                           "(live data exceeds usable capacity)");
        return spaceFreed_.future().withTimeout(poll);
    }

    /** The next page of the medium's write @p stream, waiting for GC
     *  while fewer than @p min_free units are free. */
    sim::Task<Addr>
    allocate(std::size_t stream, std::size_t min_free)
    {
        const common::Time start = sim_.now();
        for (;;) {
            if (const auto addr = medium_.tryAllocate(stream, min_free)) {
                kick();
                co_return *addr;
            }
            co_await waitForSpace(start, common::kSecond);
        }
    }

    /**
     * Mechanism 1: mark the next batch of victims, cheapest first by
     * the medium's cost (first among equals). The batch stops at
     * Medium::kMaxVictims, once it nets Medium::kNetUnits, or before
     * its relocation could take the last free unit, so the pass cannot
     * deadlock against its own writes. Relocated items pack together,
     * so a batch of V victims consumes only about live / perUnit fresh
     * units, where collecting one victim at a time would burn a fresh
     * unit per victim and make no net progress.
     */
    const std::vector<std::uint32_t> &
    selectVictims()
    {
        victims_.clear();
        std::uint64_t live_total = 0;
        while (victims_.size() < Medium::kMaxVictims) {
            const std::int64_t v = pickVictim();
            if (v < 0)
                break;
            const auto u = static_cast<std::uint32_t>(v);
            const std::uint64_t projected =
                Medium::projectedUnits(live_total + live_[u], perUnit_);
            // Leave at least one free unit outside the pass.
            if (projected + 1 > medium_.freeUnits() && !victims_.empty())
                break;
            victimized_[u] = true;
            victims_.push_back(u);
            live_total += live_[u];
            const std::uint64_t consumed =
                (live_total + perUnit_ - 1) / perUnit_;
            if (victims_.size() >= consumed + Medium::kNetUnits)
                break; // the pass already nets enough units
        }
        return victims_;
    }

  private:
    /** Upper bound on waiting for free space before declaring the FTL
     *  wedged. */
    static constexpr common::Duration kAllocTimeout = 30 * common::kSecond;

    std::int64_t
    pickVictim() const
    {
        // A fully-live unit frees nothing; it is unreclaimable.
        std::int64_t victim = -1;
        std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t u = 0; u < live_.size(); ++u) {
            if (victimized_[u] || live_[u] >= perUnit_ ||
                !medium_.collectable(u))
                continue;
            const std::uint64_t cost = medium_.victimCost(u, live_[u]);
            if (cost < best_cost) {
                best_cost = cost;
                victim = u;
            }
        }
        return victim;
    }

    sim::Task<void>
    pass()
    {
        while (medium_.freeUnits() < highWater_) {
            if (selectVictims().empty())
                break;
            victimsTaken_.inc(victims_.size());
            // The pins keep every victim page readable while the owner
            // relocates.
            for (const std::uint32_t u : victims_)
                medium_.pin(u);
            co_await owner_.relocate(victims_);
            for (const std::uint32_t u : victims_) {
                medium_.unpin(u);
                if (live_[u] != 0)
                    PANIC(name_ << ": victim unit " << u << " still has "
                                << live_[u]
                                << " live items after relocation");
                co_await medium_.reclaim(u);
                victimized_[u] = false;
                medium_.release(u);
                reclaims_.inc();

                auto freed = spaceFreed_;
                spaceFreed_ = sim::Promise<bool>(sim_);
                freed.set(true);
            }
        }
        running_ = false;
    }

    sim::Simulator &sim_;
    Medium &medium_;
    Owner &owner_;
    const char *name_;
    std::uint64_t perUnit_;
    std::uint64_t lowWater_ = 0;
    std::uint64_t highWater_ = 0;

    std::vector<std::uint32_t> live_;
    /** Units in the current pass's batch. */
    std::vector<bool> victimized_;
    std::vector<std::uint32_t> victims_;
    bool running_ = false;
    /** Resolved (and replaced) each time a unit is reclaimed. */
    sim::Promise<bool> spaceFreed_;

    common::CounterHandle victimsTaken_;
    common::CounterHandle reclaims_;
};

} // namespace ftl

#endif // FTL_SPACE_COLLECTOR_HH
