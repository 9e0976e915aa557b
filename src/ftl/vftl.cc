#include "ftl/vftl.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace ftl {

using common::kSecond;

namespace {

constexpr common::Duration kAllocTimeout = 30 * kSecond;

} // namespace

Vftl::Vftl(sim::Simulator &sim, Sftl &sftl, const Config &config)
    : sim_(sim),
      sftl_(sftl),
      config_(config),
      map_(config.expectedKeys),
      liveRecords_(sftl.logicalBlocks(), 0),
      pendingWrite_(sftl.logicalBlocks(), false),
      victimized_(sftl.logicalBlocks(), false),
      packLog_(sim, sftl.pageSize(), config.packTimeout,
               [this](std::vector<Pending> batch) {
                   flushBatch(std::move(batch));
               }),
      spaceFreed_(sim)
{
    for (Lba lba = 0;
         lba < static_cast<Lba>(sftl_.logicalBlocks()); ++lba)
        freeLbas_.push_back(lba);
    gcLowWater_ = std::max<std::uint64_t>(
        3, static_cast<std::uint64_t>(
               config_.reserveFraction *
               static_cast<double>(sftl_.logicalBlocks())));
    // Hysteresis (see mftl.cc): collect well past the trigger so
    // logical occupancy — and with it the physical-page liveness the
    // SFTL below must cope with — stays moderate.
    gcHighWater_ = std::max<std::uint64_t>(
        gcLowWater_ + 2,
        static_cast<std::uint64_t>(
            config.gcTargetFraction *
            static_cast<double>(sftl_.logicalBlocks())));
}

void
Vftl::start()
{
    sim::spawn(watermarkSweep());
}

bool
Vftl::needGc() const
{
    // Proactive collection: pursue the high-water mark whenever
    // reclaimable space exists, instead of waiting for the cliff.
    return freeLbas_.size() < gcHighWater_;
}

void
Vftl::kickGc()
{
    if (!gcRunning_ && needGc()) {
        gcRunning_ = true;
        sim::spawn(gcOnce());
    }
}

sim::Task<void>
Vftl::admitUserWrite()
{
    // Same write-cliff backpressure as MFTL: keep user tuples out of
    // the shared pack buffer while the collector is critically low on
    // free LBAs.
    const Time start = sim_.now();
    const std::size_t floor =
        std::min<std::size_t>(gcLowWater_,
                              std::max<std::size_t>(2, gcLowWater_ / 4));
    while (freeLbas_.size() < floor) {
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC("vftl: device full — writes cannot be admitted");
        co_await spaceFreed_.future().withTimeout(
            100 * common::kMillisecond);
    }
}

sim::Task<Lba>
Vftl::allocateLba(bool has_relocation)
{
    const Time start = sim_.now();
    for (;;) {
        // User batches throttle earlier than relocation batches so the
        // collector always has working room.
        const std::size_t min_free = has_relocation ? 1 : 3;
        if (freeLbas_.size() >= min_free) {
            const Lba lba = freeLbas_.front();
            freeLbas_.pop_front();
            pendingWrite_[static_cast<std::size_t>(lba)] = true;
            kickGc();
            co_return lba;
        }
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC("vftl: out of logical blocks — KV-layer GC cannot "
                  "free space");
        co_await spaceFreed_.future().withTimeout(kSecond);
    }
}

void
Vftl::flushBatch(std::vector<Pending> batch)
{
    sim::spawn(flushTask(std::move(batch)));
}

sim::Task<void>
Vftl::flushTask(std::vector<Pending> batch)
{
    bool has_relocation = false;
    for (const auto &p : batch)
        has_relocation |= p.relocation;

    const Lba lba = co_await allocateLba(has_relocation);

    flash::PageData page;
    page.records.reserve(batch.size());
    for (const auto &p : batch)
        page.records.push_back(p.record);

    co_await sftl_.write(lba, std::move(page));
    pendingWrite_[static_cast<std::size_t>(lba)] = false;
    stats_.counter("vftl.lbas_written").inc();

    for (std::size_t i = 0; i < batch.size(); ++i) {
        auto &p = batch[i];
        const Loc loc{lba, static_cast<std::uint16_t>(i)};
        if (p.record.tombstone) {
            map_.dropAtOrBelow(p.record.key, p.record.version,
                               [this](const auto &e) { dropEntry(e); });
        } else if (p.relocation) {
            auto chain = map_.find(p.record.key);
            auto *entry =
                chain ? chain.find(p.record.version) : nullptr;
            if (entry != nullptr) {
                --liveRecords_[static_cast<std::size_t>(entry->loc.lba)];
                entry->loc = loc;
                ++liveRecords_[static_cast<std::size_t>(lba)];
                stats_.counter("vftl.gc_remapped").inc();
            }
        } else {
            auto chain = map_.getOrCreate(p.record.key);
            if (chain.append(p.record.version, loc)) {
                ++liveRecords_[static_cast<std::size_t>(lba)];
                pruneChain(chain);
            }
        }
        p.ack.set(PutStatus::Ok);
    }
    kickGc();
}

sim::Task<GetResult>
Vftl::get(Key key, Version at)
{
    const Time start = sim_.now();
    stats_.counter("vftl.gets").inc();

    auto chain = map_.find(key);
    if (!chain)
        co_return GetResult::miss();
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    if (entry == nullptr)
        co_return GetResult::miss();

    const Loc loc = entry->loc;
    const Version version = entry->version;
    // Second mapping step: LBA -> physical page, inside SFTL.
    auto page = co_await sftl_.read(loc.lba);
    if (!page.has_value())
        PANIC("vftl: mapped LBA has no data");
    GetResult result;
    if (loc.slot < page->records.size() &&
        page->records[loc.slot].key == key &&
        page->records[loc.slot].version == version) {
        const auto &rec = page->records[loc.slot];
        result.found = true;
        result.version = version;
        result.value = rec.value;
    } else {
        PANIC("vftl: mapping points at wrong tuple");
    }
    stats_.histogram("vftl.get_latency").record(sim_.now() - start);
    co_return result;
}

sim::Task<PutStatus>
Vftl::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    stats_.counter("vftl.puts").inc();
    co_await admitUserWrite();
    flash::Record record;
    record.key = key;
    record.version = version;
    record.value = std::move(value);
    record.sizeBytes = config_.recordSize;
    auto ack = packLog_.append(std::move(record), false);
    const PutStatus status = co_await ack;
    stats_.histogram("vftl.put_latency").record(sim_.now() - start);
    co_return status;
}

sim::Task<void>
Vftl::erase(Key key, Version version)
{
    stats_.counter("vftl.deletes").inc();
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
Vftl::setWatermark(Time watermark)
{
    watermark_ = std::max(watermark_, watermark);
}

std::optional<Version>
Vftl::versionAt(Key key, Version at)
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
Vftl::pruneChain(ChainRef chain)
{
    chain.pruneBelowWatermark(
        watermark_, [this](const Store::Entry &e) { dropEntry(e); });
}

void
Vftl::dropEntry(const Store::Entry &entry)
{
    --liveRecords_[static_cast<std::size_t>(entry.loc.lba)];
    stats_.counter("vftl.versions_pruned").inc();
}

sim::Task<void>
Vftl::watermarkSweep()
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

std::int64_t
Vftl::pickVictim() const
{
    std::vector<bool> is_free(liveRecords_.size(), false);
    for (auto lba : freeLbas_)
        is_free[static_cast<std::size_t>(lba)] = true;

    std::int64_t victim = -1;
    std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
    const std::uint32_t full =
        sftl_.pageSize() / config_.recordSize;
    for (std::size_t lba = 0; lba < liveRecords_.size(); ++lba) {
        if (is_free[lba] || pendingWrite_[lba] || victimized_[lba] ||
            !sftl_.mapped(static_cast<Lba>(lba)))
            continue;
        if (liveRecords_[lba] >= full)
            continue; // nothing reclaimable
        if (liveRecords_[lba] < best_live) {
            best_live = liveRecords_[lba];
            victim = static_cast<std::int64_t>(lba);
        }
    }
    return victim;
}

sim::Task<void>
Vftl::gcOnce()
{
    // Compaction must batch victims: relocated records from many
    // mostly-dead LBAs are re-packed together, so a pass that trims V
    // victims consumes only ceil(live/recordsPerPage) fresh LBAs.
    // (Per-victim flushing would burn one fresh LBA per victim and
    // make no forward progress.)
    const std::uint32_t per_lba = sftl_.pageSize() / config_.recordSize;
    while (freeLbas_.size() < gcHighWater_) {
        std::vector<Lba> victims;
        std::uint64_t live_total = 0;
        while (victims.size() < 256) {
            const std::int64_t v = pickVictim();
            if (v < 0)
                break;
            const std::uint64_t projected =
                (live_total + liveRecords_[static_cast<std::size_t>(v)] +
                 per_lba - 1) /
                per_lba;
            // Never select more work than the current free pool can
            // absorb (keeping one LBA spare), or the relocation writes
            // would wedge.
            if (projected + 1 > freeLbas_.size() && !victims.empty())
                break;
            victimized_[static_cast<std::size_t>(v)] = true;
            victims.push_back(v);
            live_total += liveRecords_[static_cast<std::size_t>(v)];
            const std::uint64_t consumed =
                (live_total + per_lba - 1) / per_lba;
            if (victims.size() >= consumed + 64)
                break; // pass already nets 64 free LBAs
        }
        if (victims.empty())
            break;

        // Read all victims in parallel — the collector must outpace
        // the user write stream, and serial reads through a busy
        // device cannot.
        struct Scan
        {
            Lba lba = -1;
            std::optional<flash::PageData> page;
        };
        auto scans = std::make_shared<std::vector<Scan>>();
        for (const Lba victim : victims) {
            stats_.counter("vftl.gc_victims").inc();
            if (liveRecords_[static_cast<std::size_t>(victim)] == 0)
                continue;
            scans->push_back(Scan{victim, std::nullopt});
        }
        if (!scans->empty()) {
            auto done = std::make_shared<sim::Quorum>(
                sim_, static_cast<std::uint32_t>(scans->size()));
            for (std::size_t i = 0; i < scans->size(); ++i) {
                sim::spawn([](Vftl *self,
                              std::shared_ptr<std::vector<Scan>> scans,
                              std::size_t index,
                              std::shared_ptr<sim::Quorum> done)
                               -> sim::Task<void> {
                    (*scans)[index].page =
                        co_await self->sftl_.read((*scans)[index].lba);
                    self->stats_.counter("vftl.gc_lba_reads").inc();
                    done->arrive();
                }(this, scans, i, done));
            }
            co_await done->wait();
        }

        std::vector<sim::Future<PutStatus>> acks;
        for (const Scan &scan : *scans) {
            if (!scan.page.has_value())
                PANIC("vftl: victim LBA vanished");
            const auto &page = *scan.page;
            for (std::uint16_t slot = 0; slot < page.records.size();
                 ++slot) {
                const auto &rec = page.records[slot];
                if (rec.tombstone)
                    continue;
                auto chain = map_.find(rec.key);
                if (!chain)
                    continue;
                const auto *entry = chain.find(rec.version);
                if (entry == nullptr || entry->loc.lba != scan.lba ||
                    entry->loc.slot != slot)
                    continue;
                acks.push_back(packLog_.append(rec, true));
            }
        }
        packLog_.flushNow();
        for (auto &ack : acks)
            co_await ack;

        for (const Lba victim : victims) {
            if (liveRecords_[static_cast<std::size_t>(victim)] != 0)
                PANIC("vftl: victim LBA still live after remap");
            co_await sftl_.trim(victim);
            victimized_[static_cast<std::size_t>(victim)] = false;
            freeLbas_.push_back(victim);
            stats_.counter("vftl.gc_trims").inc();

            auto freed = spaceFreed_;
            spaceFreed_ = sim::Promise<bool>(sim_);
            freed.set(true);
        }
    }
    gcRunning_ = false;
}

std::size_t
Vftl::rebuildFromStore()
{
    map_.clear();
    std::fill(liveRecords_.begin(), liveRecords_.end(), 0);
    std::fill(pendingWrite_.begin(), pendingWrite_.end(), false);
    std::fill(victimized_.begin(), victimized_.end(), false);
    freeLbas_.clear();

    std::size_t recovered = 0;
    // LBAs are scanned in address order, not write order, so a
    // tombstone is applied only once every version it covers is back.
    std::vector<std::pair<Key, Version>> tombstones;
    for (Lba lba = 0; lba < static_cast<Lba>(sftl_.logicalBlocks());
         ++lba) {
        const flash::PageData *page = sftl_.peek(lba);
        if (page == nullptr) {
            freeLbas_.push_back(lba);
            continue;
        }
        for (std::uint16_t slot = 0; slot < page->records.size();
             ++slot) {
            const auto &rec = page->records[slot];
            if (rec.tombstone) {
                tombstones.emplace_back(rec.key, rec.version);
                continue;
            }
            auto chain = map_.getOrCreate(rec.key);
            if (chain.append(rec.version, Loc{lba, slot})) {
                ++liveRecords_[static_cast<std::size_t>(lba)];
                ++recovered;
            }
        }
    }
    for (const auto &[key, version] : tombstones)
        recovered -= map_.dropAtOrBelow(
            key, version, [this](const auto &e) { dropEntry(e); });
    return recovered;
}

std::size_t
Vftl::versionCount(Key key) const
{
    return map_.versionCount(key);
}

} // namespace ftl
