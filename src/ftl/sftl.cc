#include "ftl/sftl.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace ftl {

using common::kSecond;

namespace {

constexpr common::Duration kAllocTimeout = 30 * kSecond;
constexpr std::size_t kStripes = 64;

} // namespace

Sftl::Sftl(sim::Simulator &sim, flash::SsdDevice &device,
           const Config &config)
    : sim_(sim),
      device_(device),
      config_(config),
      freeBlocks_(device.geometry().numBlocks),
      spaceFreed_(sim)
{
    const auto &geo = device.geometry();
    logicalBlocks_ = static_cast<std::uint64_t>(
        static_cast<double>(geo.totalPages()) *
        (1.0 - config.reserveFraction));
    lbaMap_.assign(logicalBlocks_, flash::kNoPage);
    owners_.assign(geo.totalPages(), -1);
    validPages_.assign(geo.numBlocks, 0);
    pendingPrograms_.assign(geo.numBlocks, 0);
    victimized_.assign(geo.numBlocks, false);
    for (std::uint32_t b = 0; b < geo.numBlocks; ++b)
        freeBlocks_.push(b, device.eraseCount(b));
    gcLowWater_ = std::max<std::uint32_t>(
        3, static_cast<std::uint32_t>(0.05 *
                                      static_cast<double>(geo.numBlocks)));
    // Hysteresis: collect past the trigger so physical occupancy does
    // not sit permanently at the cliff edge.
    gcHighWater_ = std::max<std::uint32_t>(
        gcLowWater_ + 2,
        static_cast<std::uint32_t>(config.gcTargetFraction *
                                   static_cast<double>(geo.numBlocks)));
}

std::int64_t &
Sftl::owner(flash::PageAddr addr)
{
    return owners_[static_cast<std::size_t>(addr.block) *
                       device_.geometry().pagesPerBlock +
                   addr.page];
}

bool
Sftl::mapped(Lba lba) const
{
    return lbaMap_[static_cast<std::size_t>(lba)] != flash::kNoPage;
}

const flash::PageData *
Sftl::peek(Lba lba) const
{
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        return nullptr;
    return &device_.peekPage(addr);
}

bool
Sftl::needGc() const
{
    // Proactive collection: pursue the high-water mark whenever
    // reclaimable space exists, instead of waiting for the cliff.
    return freeBlocks_.size() < gcHighWater_;
}

void
Sftl::kickGc()
{
    if (!gcRunning_ && needGc()) {
        gcRunning_ = true;
        sim::spawn(gcOnce());
    }
}

sim::Task<flash::PageAddr>
Sftl::allocatePage(bool for_gc)
{
    const Time start = sim_.now();
    for (;;) {
        std::int64_t &open = for_gc ? gcOpenBlock_ : openBlock_;
        std::uint32_t &next = for_gc ? gcNextPage_ : nextPage_;
        if (open >= 0 && next < device_.geometry().pagesPerBlock) {
            flash::PageAddr addr{static_cast<std::uint32_t>(open),
                                 next++};
            ++pendingPrograms_[addr.block];
            kickGc();
            co_return addr;
        }
        const std::size_t min_free = for_gc ? 1 : 2;
        if (freeBlocks_.size() >= min_free) {
            // Wear-levelling: open the least-worn free block.
            open = freeBlocks_.pop();
            next = 0;
            continue;
        }
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC("sftl: device full — GC cannot free space");
        co_await spaceFreed_.future().withTimeout(kSecond);
    }
}

sim::Task<std::optional<flash::PageData>>
Sftl::read(Lba lba)
{
    stats_.counter("sftl.reads").inc();
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        co_return std::nullopt;
    device_.pinBlock(addr.block);
    const flash::PageData *page = co_await device_.readPage(addr);
    flash::PageData copy = *page;
    device_.unpinBlock(addr.block);
    co_return copy;
}

sim::Task<PutStatus>
Sftl::write(Lba lba, flash::PageData data)
{
    stats_.counter("sftl.writes").inc();
    const flash::PageAddr addr = co_await allocatePage(false);
    co_await device_.programPage(addr, std::move(data));
    --pendingPrograms_[addr.block];

    const flash::PageAddr old = lbaMap_[static_cast<std::size_t>(lba)];
    if (old != flash::kNoPage) {
        owner(old) = -1;
        --validPages_[old.block];
    }
    lbaMap_[static_cast<std::size_t>(lba)] = addr;
    owner(addr) = lba;
    ++validPages_[addr.block];
    kickGc();
    co_return PutStatus::Ok;
}

sim::Task<void>
Sftl::trim(Lba lba)
{
    stats_.counter("sftl.trims").inc();
    const flash::PageAddr old = lbaMap_[static_cast<std::size_t>(lba)];
    if (old != flash::kNoPage) {
        owner(old) = -1;
        --validPages_[old.block];
        lbaMap_[static_cast<std::size_t>(lba)] = flash::kNoPage;
    }
    co_return;
}

std::int32_t
Sftl::pickVictim() const
{
    std::int32_t victim = -1;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t b = 0; b < validPages_.size(); ++b) {
        if (freeBlocks_.contains(b) || victimized_[b] ||
            static_cast<std::int64_t>(b) == openBlock_ ||
            static_cast<std::int64_t>(b) == gcOpenBlock_ ||
            pendingPrograms_[b] != 0)
            continue;
        if (validPages_[b] >= device_.geometry().pagesPerBlock)
            continue; // nothing to reclaim
        const std::uint64_t cost =
            (static_cast<std::uint64_t>(validPages_[b]) << 20) +
            device_.eraseCount(b);
        if (cost < best_cost) {
            best_cost = cost;
            victim = static_cast<std::int32_t>(b);
        }
    }
    return victim;
}

sim::Task<void>
Sftl::moveValidPage(std::uint32_t vb, std::uint32_t pg,
                    std::shared_ptr<sim::Quorum> done)
{
    const auto pages = device_.geometry().pagesPerBlock;
    const flash::PageAddr addr{vb, pg};
    const Lba lba = owners_[static_cast<std::size_t>(vb) * pages + pg];
    if (lba >= 0 &&
        device_.pageState(addr) == flash::PageState::Programmed) {
        const flash::PageData *page = co_await device_.readPage(addr);
        flash::PageData copy = *page;
        stats_.counter("sftl.gc_page_reads").inc();

        const flash::PageAddr dst = co_await allocatePage(true);
        co_await device_.programPage(dst, std::move(copy));
        --pendingPrograms_[dst.block];
        stats_.counter("sftl.gc_page_writes").inc();

        // The LBA may have been overwritten or trimmed while the copy
        // was in flight; only remap if we still own it.
        if (lbaMap_[static_cast<std::size_t>(lba)] == addr) {
            owner(addr) = -1;
            --validPages_[vb];
            lbaMap_[static_cast<std::size_t>(lba)] = dst;
            owner(dst) = lba;
            ++validPages_[dst.block];
        }
    }
    done->arrive();
}

sim::Task<void>
Sftl::gcOnce()
{
    const auto pages = device_.geometry().pagesPerBlock;
    while (freeBlocks_.size() < gcHighWater_) {
        // Select a batch of victims whose valid pages fit in the free
        // pool (keeping one block spare), then move all their valid
        // pages in parallel: a serial collector cannot outpace the
        // write stream through a saturated device.
        std::vector<std::uint32_t> victims;
        std::uint64_t valid_total = 0;
        while (victims.size() < 32) {
            const std::int32_t v = pickVictim();
            if (v < 0)
                break;
            const auto vb = static_cast<std::uint32_t>(v);
            const std::uint64_t projected =
                (valid_total + validPages_[vb] + pages) / pages + 1;
            if (projected + 1 > freeBlocks_.size() && !victims.empty())
                break;
            victimized_[vb] = true;
            victims.push_back(vb);
            valid_total += validPages_[vb];
            const std::uint64_t consumed =
                (valid_total + pages - 1) / pages;
            if (victims.size() >= consumed + 12)
                break;
        }
        if (victims.empty())
            break;

        std::uint32_t move_count = 0;
        for (const std::uint32_t vb : victims) {
            stats_.counter("sftl.gc_victims").inc();
            device_.pinBlock(vb);
            move_count += pages;
        }
        auto done = std::make_shared<sim::Quorum>(sim_, move_count);
        for (const std::uint32_t vb : victims) {
            for (std::uint32_t pg = 0; pg < pages; ++pg)
                sim::spawn(moveValidPage(vb, pg, done));
        }
        co_await done->wait();

        for (const std::uint32_t vb : victims) {
            device_.unpinBlock(vb);
            if (validPages_[vb] != 0)
                PANIC("sftl: victim still has " << validPages_[vb]
                                                << " valid pages");
            co_await device_.eraseBlock(vb);
            victimized_[vb] = false;
            freeBlocks_.push(vb, device_.eraseCount(vb));
            stats_.counter("sftl.gc_erases").inc();

            auto freed = spaceFreed_;
            spaceFreed_ = sim::Promise<bool>(sim_);
            freed.set(true);
        }
    }
    gcRunning_ = false;
}

SingleVersionKv::SingleVersionKv(sim::Simulator &sim, Sftl &sftl,
                                 const Config &config)
    : sim_(sim), sftl_(sftl), config_(config)
{
    recordsPerPage_ = sftl.pageSize() / config.recordSize;
    const std::uint64_t lbas_needed =
        (config.capacityKeys + recordsPerPage_ - 1) / recordsPerPage_;
    if (lbas_needed > sftl.logicalBlocks())
        FATAL("SingleVersionKv: " << config.capacityKeys
                                  << " keys exceed device capacity");
    for (std::size_t i = 0; i < kStripes; ++i)
        stripes_.push_back(std::make_unique<sim::Mutex>(sim));
}

Lba
SingleVersionKv::lbaOf(Key key) const
{
    return static_cast<Lba>(key / recordsPerPage_);
}

std::uint32_t
SingleVersionKv::slotOf(Key key) const
{
    return static_cast<std::uint32_t>(key % recordsPerPage_);
}

sim::Mutex &
SingleVersionKv::stripe(Lba lba)
{
    return *stripes_[static_cast<std::size_t>(lba) % kStripes];
}

sim::Task<GetResult>
SingleVersionKv::get(Key key, Version /* at: single version only */)
{
    const Time start = sim_.now();
    stats_.counter("svkv.gets").inc();
    if (key >= config_.capacityKeys)
        co_return GetResult::miss();
    auto page = co_await sftl_.read(lbaOf(key));
    if (!page.has_value())
        co_return GetResult::miss();
    const auto slot = slotOf(key);
    if (slot >= page->records.size() || page->records[slot].tombstone)
        co_return GetResult::miss();
    const auto &rec = page->records[slot];
    GetResult result;
    result.found = true;
    result.version = rec.version;
    result.value = rec.value;
    stats_.histogram("svkv.get_latency").record(sim_.now() - start);
    co_return result;
}

sim::Task<PutStatus>
SingleVersionKv::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    stats_.counter("svkv.puts").inc();
    if (key >= config_.capacityKeys)
        co_return PutStatus::DeviceFull;
    const Lba lba = lbaOf(key);

    co_await stripe(lba).lock();
    sim::LockGuard guard(stripe(lba));

    auto page = co_await sftl_.read(lba);
    flash::PageData data;
    if (page.has_value()) {
        data = std::move(*page);
    } else {
        data.records.assign(recordsPerPage_, flash::Record{});
        for (auto &r : data.records) {
            r.tombstone = true;
            r.sizeBytes = config_.recordSize;
        }
    }
    auto &rec = data.records[slotOf(key)];
    if (!rec.tombstone && rec.version >= version) {
        // At-most-once / stale rejection (section 3.3): a
        // single-version store must not overwrite newer data.
        stats_.counter("svkv.stale_rejects").inc();
        co_return PutStatus::StaleVersion;
    }
    rec.key = key;
    rec.version = version;
    rec.value = std::move(value);
    rec.tombstone = false;
    rec.sizeBytes = config_.recordSize;
    co_await sftl_.write(lba, std::move(data));
    stats_.histogram("svkv.put_latency").record(sim_.now() - start);
    co_return PutStatus::Ok;
}

sim::Task<void>
SingleVersionKv::erase(Key key, Version version)
{
    if (key >= config_.capacityKeys)
        co_return;
    const Lba lba = lbaOf(key);
    co_await stripe(lba).lock();
    sim::LockGuard guard(stripe(lba));
    auto page = co_await sftl_.read(lba);
    if (!page.has_value())
        co_return;
    auto &rec = page->records[slotOf(key)];
    if (rec.tombstone || rec.version > version)
        co_return;
    rec.tombstone = true;
    rec.value.clear();
    co_await sftl_.write(lba, std::move(*page));
}

void
SingleVersionKv::setWatermark(Time)
{
    // Single-version: nothing to prune.
}

} // namespace ftl
