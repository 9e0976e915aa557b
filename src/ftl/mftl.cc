#include "ftl/mftl.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace ftl {

using common::kMicrosecond;
using common::kMillisecond;
using common::kSecond;

namespace {

/** Upper bound on waiting for GC before declaring the FTL wedged. */
constexpr common::Duration kAllocTimeout = 30 * kSecond;

} // namespace

Mftl::Mftl(sim::Simulator &sim, flash::SsdDevice &device,
           const Config &config)
    : sim_(sim),
      device_(device),
      config_(config),
      map_(config.expectedKeys),
      liveTuples_(device.geometry().numBlocks, 0),
      pendingPrograms_(device.geometry().numBlocks, 0),
      victimized_(device.geometry().numBlocks, false),
      freeBlocks_(device.geometry().numBlocks),
      packLog_(sim, device.geometry().pageSize, config.packTimeout,
               [this](std::vector<Pending> batch) {
                   flushBatch(std::move(batch));
               }),
      spaceFreed_(sim)
{
    const auto blocks = device.geometry().numBlocks;
    for (std::uint32_t b = 0; b < blocks; ++b)
        freeBlocks_.push(b, device.eraseCount(b));
    gcLowWater_ = std::max<std::uint32_t>(
        3, static_cast<std::uint32_t>(config_.reserveFraction *
                                      static_cast<double>(blocks)));
    // Hysteresis: once triggered, collect up to the high-water mark so
    // occupancy does not ratchet up to the trigger level and stay
    // there (which would leave every victim nearly fully live).
    gcHighWater_ = std::max<std::uint32_t>(
        gcLowWater_ + 2,
        static_cast<std::uint32_t>(
            config.gcTargetFraction *
            static_cast<double>(blocks)));
}

void
Mftl::start()
{
    sim::spawn(watermarkSweep());
}

bool
Mftl::needGc() const
{
    // Proactive collection: pursue the high-water mark whenever
    // reclaimable space exists, instead of waiting for the cliff.
    return freeBlocks_.size() < gcHighWater_;
}

void
Mftl::kickGc()
{
    if (!gcRunning_ && needGc()) {
        gcRunning_ = true;
        sim::spawn(gcOnce());
    }
}

sim::Task<void>
Mftl::admitUserWrite()
{
    // Backpressure at the API: while free space is critically low,
    // user tuples must not even enter the pack buffer — otherwise they
    // ride in relocation batches and consume the blocks the collector
    // needs to make progress (the flash write cliff).
    const Time start = sim_.now();
    const std::size_t floor =
        std::min<std::size_t>(gcLowWater_,
                              std::max<std::size_t>(2, gcLowWater_ / 4));
    while (freeBlocks_.size() < floor) {
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC("mftl: device full — writes cannot be admitted");
        co_await spaceFreed_.future().withTimeout(
            100 * kMillisecond);
    }
}

sim::Task<flash::PageAddr>
Mftl::allocatePage(bool has_relocation)
{
    const Time start = sim_.now();
    for (;;) {
        if (openBlock_ >= 0 &&
            nextPage_ < device_.geometry().pagesPerBlock) {
            flash::PageAddr addr{static_cast<std::uint32_t>(openBlock_),
                                 nextPage_++};
            ++pendingPrograms_[addr.block];
            kickGc();
            co_return addr;
        }
        // Need a fresh block. Relocation batches (GC progress) may take
        // the last free block; user-only batches throttle earlier so
        // the collector always has working room (write-cliff
        // backpressure, as real FTLs apply).
        const std::size_t min_free = has_relocation ? 1 : 3;
        if (freeBlocks_.size() >= min_free) {
            // Wear-levelling: open the least-worn free block.
            openBlock_ = freeBlocks_.pop();
            nextPage_ = 0;
            continue;
        }
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC("mftl: device full — GC cannot free space "
                  "(live data exceeds usable capacity)");
        co_await spaceFreed_.future().withTimeout(kSecond);
    }
}

void
Mftl::flushBatch(std::vector<Pending> batch)
{
    sim::spawn(flushTask(std::move(batch)));
}

sim::Task<void>
Mftl::flushTask(std::vector<Pending> batch)
{
    bool has_relocation = false;
    for (const auto &p : batch)
        has_relocation |= p.relocation;

    const flash::PageAddr addr = co_await allocatePage(has_relocation);

    flash::PageData page;
    page.records.reserve(batch.size());
    for (const auto &p : batch)
        page.records.push_back(p.record);

    co_await device_.programPage(addr, std::move(page));
    --pendingPrograms_[addr.block];
    pagesWritten_.inc();

    // Publish the new locations in the mapping table.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        auto &p = batch[i];
        const Loc loc{addr, static_cast<std::uint16_t>(i)};
        if (p.record.tombstone) {
            // A durable delete: drop the versions it covers.
            map_.dropAtOrBelow(p.record.key, p.record.version,
                               [this](const auto &e) { dropEntry(e); });
        } else if (p.relocation) {
            auto chain = map_.find(p.record.key);
            auto *entry =
                chain ? chain.find(p.record.version) : nullptr;
            if (entry != nullptr) {
                --liveTuples_[entry->loc.page.block];
                entry->loc = loc;
                ++liveTuples_[addr.block];
                gcRemapped_.inc();
            }
            // else: the version was pruned while in flight — the new
            // copy is dead on arrival, which is fine.
        } else {
            auto chain = map_.getOrCreate(p.record.key);
            if (chain.append(p.record.version, loc)) {
                ++liveTuples_[addr.block];
                pruneChain(chain);
            }
            // else: idempotent duplicate; dead on arrival.
        }
        p.ack.set(PutStatus::Ok);
    }
    kickGc();
}

sim::Task<GetResult>
Mftl::get(Key key, Version at)
{
    const Time start = sim_.now();
    gets_.inc();

    auto chain = map_.find(key);
    if (!chain)
        co_return GetResult::miss();
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    if (entry == nullptr)
        co_return GetResult::miss();

    // Copy the locator, then pin before any suspension: between the
    // lookup and the pin no other coroutine can run, so the mapping
    // cannot move under us, and the pin blocks GC's erase afterwards.
    const Loc loc = entry->loc;
    const Version version = entry->version;
    device_.pinBlock(loc.page.block);
    const flash::PageData *page = co_await device_.readPage(loc.page);
    GetResult result;
    if (loc.slot < page->records.size() &&
        page->records[loc.slot].key == key &&
        page->records[loc.slot].version == version) {
        result.found = true;
        result.version = version;
        result.value = page->records[loc.slot].value;
    } else {
        PANIC("mftl: mapping points at wrong tuple");
    }
    device_.unpinBlock(loc.page.block);
    getLatency_.record(sim_.now() - start);
    co_return result;
}

sim::Task<PutStatus>
Mftl::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    puts_.inc();
    co_await admitUserWrite();
    flash::Record record;
    record.key = key;
    record.version = version;
    record.value = std::move(value);
    record.sizeBytes = config_.recordSize;
    auto ack = packLog_.append(std::move(record), false);
    const PutStatus status = co_await ack;
    putLatency_.record(sim_.now() - start);
    co_return status;
}

sim::Task<void>
Mftl::erase(Key key, Version version)
{
    deletes_.inc();
    co_await admitUserWrite();
    flash::Record record;
    record.key = key;
    record.version = version;
    record.sizeBytes = config_.recordSize;
    record.tombstone = true;
    auto ack = packLog_.append(std::move(record), false);
    co_await ack;
}

void
Mftl::setWatermark(Time watermark)
{
    watermark_ = std::max(watermark_, watermark);
}

std::optional<Version>
Mftl::versionAt(Key key, Version at)
{
    auto chain = map_.find(key);
    if (!chain)
        return std::nullopt;
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    return entry == nullptr ? std::nullopt
                            : std::optional<Version>(entry->version);
}

void
Mftl::pruneChain(ChainRef chain)
{
    chain.pruneBelowWatermark(
        watermark_, [this](const Store::Entry &e) { dropEntry(e); });
}

void
Mftl::dropEntry(const Store::Entry &entry)
{
    --liveTuples_[entry.loc.page.block];
    versionsPruned_.inc();
}

sim::Task<void>
Mftl::watermarkSweep()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, config_.watermarkSweepInterval);
        // Only multi-version chains can lose a version; the store
        // indexes exactly those, so the sweep never walks the table.
        map_.pruneMultiVersion(
            watermark_, [this](const Store::Entry &e) { dropEntry(e); });
        kickGc();
    }
}

std::int32_t
Mftl::pickVictim() const
{
    std::int32_t victim = -1;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t b = 0; b < liveTuples_.size(); ++b) {
        if (freeBlocks_.contains(b) || victimized_[b] ||
            static_cast<std::int64_t>(b) == openBlock_ ||
            pendingPrograms_[b] != 0)
            continue;
        // Greedy-by-liveness with wear-aware tie-breaking.
        const std::uint64_t cost =
            (static_cast<std::uint64_t>(liveTuples_[b]) << 20) +
            device_.eraseCount(b);
        if (cost < best_cost) {
            best_cost = cost;
            victim = static_cast<std::int32_t>(b);
        }
    }
    if (victim >= 0) {
        // A fully-live victim frees nothing; treat as unreclaimable.
        const auto per_block =
            static_cast<std::uint64_t>(device_.geometry().pagesPerBlock) *
            (device_.geometry().pageSize / config_.recordSize);
        if (liveTuples_[static_cast<std::uint32_t>(victim)] >= per_block)
            return -1;
    }
    return victim;
}

sim::Task<void>
Mftl::gcOnce()
{
    // Victims are processed in batches: their live tuples re-pack
    // tightly together, so a pass that erases V blocks consumes only
    // ceil(live_total / tuples_per_block) fresh blocks. Selection is
    // bounded by the current free pool so the relocation writes can
    // never exhaust it (which would deadlock the collector against its
    // own flushes).
    const std::uint64_t per_block =
        static_cast<std::uint64_t>(device_.geometry().pagesPerBlock) *
        (device_.geometry().pageSize / config_.recordSize);
    while (freeBlocks_.size() < gcHighWater_) {
        std::vector<std::uint32_t> victims;
        std::uint64_t live_total = 0;
        while (victims.size() < 32) {
            const std::int32_t v = pickVictim();
            if (v < 0)
                break;
            const auto vb = static_cast<std::uint32_t>(v);
            const std::uint64_t projected =
                (live_total + liveTuples_[vb] + per_block) / per_block +
                1;
            // Leave at least one free block outside the pass.
            if (projected + 1 > freeBlocks_.size() && !victims.empty())
                break;
            victimized_[vb] = true;
            victims.push_back(vb);
            live_total += liveTuples_[vb];
            const std::uint64_t consumed =
                (live_total + per_block - 1) / per_block;
            if (victims.size() >= consumed + 12)
                break; // pass already nets 12 blocks
        }
        if (victims.empty())
            break;

        // Read every victim page in parallel (pins held across the
        // scan): a serial collector cannot outpace the user write
        // stream through a saturated device.
        struct Scan
        {
            flash::PageAddr addr;
            const flash::PageData *page = nullptr;
        };
        auto scans = std::make_shared<std::vector<Scan>>();
        std::vector<std::uint32_t> pinned;
        const auto pages = device_.geometry().pagesPerBlock;
        for (const std::uint32_t vb : victims) {
            gcVictims_.inc();
            if (liveTuples_[vb] == 0)
                continue;
            device_.pinBlock(vb);
            pinned.push_back(vb);
            for (std::uint32_t pg = 0; pg < pages; ++pg) {
                const flash::PageAddr addr{vb, pg};
                if (device_.pageState(addr) ==
                    flash::PageState::Programmed)
                    scans->push_back(Scan{addr, nullptr});
            }
        }
        if (!scans->empty()) {
            auto done = std::make_shared<sim::Quorum>(
                sim_, static_cast<std::uint32_t>(scans->size()));
            for (std::size_t i = 0; i < scans->size(); ++i) {
                sim::spawn([](Mftl *self,
                              std::shared_ptr<std::vector<Scan>> scans,
                              std::size_t index,
                              std::shared_ptr<sim::Quorum> done)
                               -> sim::Task<void> {
                    (*scans)[index].page = co_await
                        self->device_.readPage((*scans)[index].addr);
                    self->gcPageReads_.inc();
                    done->arrive();
                }(this, scans, i, done));
            }
            co_await done->wait();
        }

        std::vector<sim::Future<PutStatus>> acks;
        for (const Scan &scan : *scans) {
            for (std::uint16_t slot = 0;
                 slot < scan.page->records.size(); ++slot) {
                const auto &rec = scan.page->records[slot];
                if (rec.tombstone)
                    continue;
                auto chain = map_.find(rec.key);
                if (!chain)
                    continue;
                const auto *entry = chain.find(rec.version);
                if (entry == nullptr || entry->loc.page != scan.addr ||
                    entry->loc.slot != slot)
                    continue; // dead or already moved
                // Live: remap through the shared pack buffer
                // ("puts or remapped keys", section 5).
                acks.push_back(packLog_.append(rec, true));
            }
        }
        for (const std::uint32_t vb : pinned)
            device_.unpinBlock(vb);
        packLog_.flushNow();
        for (auto &ack : acks)
            co_await ack;

        for (const std::uint32_t vb : victims) {
            if (liveTuples_[vb] != 0)
                PANIC("mftl: victim block "
                      << vb << " still has " << liveTuples_[vb]
                      << " live tuples after remap");
            co_await device_.eraseBlock(vb);
            victimized_[vb] = false;
            freeBlocks_.push(vb, device_.eraseCount(vb));
            gcErases_.inc();

            auto freed = spaceFreed_;
            spaceFreed_ = sim::Promise<bool>(sim_);
            freed.set(true);
        }
    }
    gcRunning_ = false;
}

std::size_t
Mftl::versionCount(Key key) const
{
    return map_.versionCount(key);
}

std::size_t
Mftl::rebuildFromFlash()
{
    map_.clear();
    std::fill(liveTuples_.begin(), liveTuples_.end(), 0);
    std::fill(pendingPrograms_.begin(), pendingPrograms_.end(), 0);
    std::fill(victimized_.begin(), victimized_.end(), false);
    freeBlocks_.clear();
    openBlock_ = -1;
    nextPage_ = 0;

    std::size_t recovered = 0;
    // Pages are scanned in block order, not write order, so a
    // tombstone is applied only once every version it covers is back.
    std::vector<std::pair<Key, Version>> tombstones;
    const auto &geo = device_.geometry();
    for (std::uint32_t b = 0; b < geo.numBlocks; ++b) {
        bool any_programmed = false;
        for (std::uint32_t pg = 0; pg < geo.pagesPerBlock; ++pg) {
            const flash::PageAddr addr{b, pg};
            if (device_.pageState(addr) != flash::PageState::Programmed)
                continue;
            any_programmed = true;
            const auto &page = device_.peekPage(addr);
            for (std::uint16_t slot = 0; slot < page.records.size();
                 ++slot) {
                const auto &rec = page.records[slot];
                if (rec.tombstone) {
                    tombstones.emplace_back(rec.key, rec.version);
                    continue;
                }
                auto chain = map_.getOrCreate(rec.key);
                if (chain.append(rec.version, Loc{addr, slot})) {
                    ++liveTuples_[b];
                    ++recovered;
                }
            }
        }
        if (!any_programmed)
            freeBlocks_.push(b, device_.eraseCount(b));
    }
    for (const auto &[key, version] : tombstones)
        recovered -= map_.dropAtOrBelow(
            key, version, [this](const auto &e) { dropEntry(e); });
    return recovered;
}

} // namespace ftl
