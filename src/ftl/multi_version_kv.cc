#include "ftl/multi_version_kv.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ftl/mftl.hh"
#include "ftl/vftl.hh"
#include "sim/sync.hh"

namespace ftl {

using common::kMillisecond;

template <class Medium>
MultiVersionKv<Medium>::MultiVersionKv(sim::Simulator &sim,
                                       typename Medium::Device &device,
                                       const Config &config)
    : sim_(sim),
      medium_(device),
      config_(config),
      packLog_(sim, config.packTimeout,
               [this](std::vector<Pending> batch) {
                   flushBatch(std::move(batch));
               }),
      gc_(sim, medium_, *this, stats_,
          {.name = Medium::kName,
           .perUnit = static_cast<std::uint64_t>(medium_.pagesPerUnit()) *
                      flash::kRecordsPerPage,
           .lowFraction = kReserveFraction,
           .highFraction = Medium::kGcTargetFraction,
           .victimsStat = kStats.gcVictims,
           .reclaimsStat = kStats.gcReclaims})
{
}

template <class Medium>
void
MultiVersionKv<Medium>::start()
{
    sim::spawn(watermarkSweep());
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::admitUserWrite()
{
    // Backpressure at the API: while free space is critically low,
    // user tuples must not even enter the pack buffer — otherwise they
    // ride in relocation batches and consume the units the collector
    // needs to make progress (the flash write cliff).
    const Time start = sim_.now();
    const std::size_t floor = std::min<std::size_t>(
        gc_.lowWater(), std::max<std::size_t>(2, gc_.lowWater() / 4));
    while (medium_.freeUnits() < floor)
        co_await gc_.waitForSpace(start, 100 * kMillisecond);
}

template <class Medium>
void
MultiVersionKv<Medium>::flushBatch(std::vector<Pending> batch)
{
    sim::spawn(flushTask(std::move(batch)));
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::flushTask(std::vector<Pending> batch)
{
    bool has_relocation = false;
    for (const auto &p : batch)
        has_relocation |= p.relocation;

    // Relocation batches (GC progress) may take the last free unit;
    // user-only batches throttle earlier so the collector always has
    // working room (write-cliff backpressure, as real FTLs apply).
    const Addr addr = co_await gc_.allocate(0, has_relocation ? 1 : 3);

    // The tuples move into the page; the publish loop reads them back
    // from where the program stored them.
    flash::PageData page;
    for (auto &p : batch)
        page.records.push_back(std::move(p.record));

    co_await medium_.write(addr, std::move(page));
    medium_.written(addr);
    unitsWritten_.inc();

    // Publish the new locations in the mapping table.
    const flash::PageRecords programmed = medium_.peek(addr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const flash::Record &rec = programmed[i];
        const Loc loc{addr, static_cast<std::uint16_t>(i)};
        if (batch[i].relocation) {
            auto chain = map_.find(rec.key);
            auto *entry = chain ? chain.find(rec.version) : nullptr;
            if (entry != nullptr) {
                --gc_.live(Medium::unitOf(entry->loc.addr));
                entry->loc = loc;
                ++gc_.live(Medium::unitOf(addr));
                gcRemapped_.inc();
            }
            // else: the version was pruned while in flight — the new
            // copy is dead on arrival, which is fine.
        } else {
            auto chain = map_.getOrCreate(rec.key);
            if (chain.append(rec.version, loc)) {
                ++gc_.live(Medium::unitOf(addr));
                pruneChain(chain);
            }
            // else: idempotent duplicate; dead on arrival.
        }
        batch[i].ack.set(PutStatus::Ok);
    }
    packLog_.recycle(std::move(batch));
    gc_.kick();
}

template <class Medium>
sim::Task<GetResult>
MultiVersionKv<Medium>::get(Key key, Version at)
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
    // cannot move under us, and the pin blocks GC's reclaim afterwards.
    const Loc loc = entry->loc;
    const Version version = entry->version;
    medium_.pin(Medium::unitOf(loc.addr));
    const auto page = co_await medium_.read(loc.addr);
    const flash::PageRecords records = Medium::records(page);
    GetResult result;
    if (loc.slot < records.size() && records[loc.slot].key == key &&
        records[loc.slot].version == version) {
        result.found = true;
        result.version = version;
        result.value = records[loc.slot].value;
    } else {
        PANIC(Medium::kName << ": mapping points at wrong tuple");
    }
    medium_.unpin(Medium::unitOf(loc.addr));
    getLatency_.record(sim_.now() - start);
    co_return result;
}

template <class Medium>
sim::Task<PutStatus>
MultiVersionKv<Medium>::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    puts_.inc();
    co_await admitUserWrite();
    auto ack = packLog_.append({key, version, std::move(value)}, false);
    const PutStatus status = co_await ack;
    putLatency_.record(sim_.now() - start);
    co_return status;
}

template <class Medium>
void
MultiVersionKv<Medium>::setWatermark(Time watermark)
{
    watermark_ = std::max(watermark_, watermark);
}

template <class Medium>
std::optional<Version>
MultiVersionKv<Medium>::versionAt(Key key, Version at)
{
    auto chain = map_.find(key);
    if (!chain)
        return std::nullopt;
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    return entry == nullptr ? std::nullopt
                            : std::optional<Version>(entry->version);
}

template <class Medium>
void
MultiVersionKv<Medium>::pruneChain(ChainRef chain)
{
    chain.pruneBelowWatermark(
        watermark_, [this](const auto &e) { dropEntry(e); });
}

template <class Medium>
void
MultiVersionKv<Medium>::dropEntry(const typename Store::Entry &entry)
{
    --gc_.live(Medium::unitOf(entry.loc.addr));
    versionsPruned_.inc();
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::watermarkSweep()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, kWatermarkSweepInterval);
        // Only multi-version chains can lose a version; the store
        // indexes exactly those, so the sweep never walks the table.
        map_.pruneMultiVersion(
            watermark_, [this](const auto &e) { dropEntry(e); });
        gc_.kick();
    }
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::relocate(const std::vector<std::uint32_t> &victims)
{
    // Read every page of a victim holding live tuples, in parallel: a
    // serial collector cannot outpace the user write stream through a
    // saturated device. Every reader arrives before this frame
    // resumes, so the quorum lives here.
    for (const std::uint32_t vu : victims) {
        if (gc_.live(vu) != 0)
            medium_.forEachPage(
                vu, [&](Addr addr) { scans_.push_back(Scan{addr}); });
    }
    if (!scans_.empty()) {
        sim::Quorum done(sim_, static_cast<std::uint32_t>(scans_.size()));
        for (Scan &scan : scans_) {
            sim::spawn([](MultiVersionKv *self, Scan *scan,
                          sim::Quorum *done) -> sim::Task<void> {
                scan->page = co_await self->medium_.read(scan->addr);
                self->gcReads_.inc();
                done->arrive();
            }(this, &scan, &done));
        }
        co_await done.wait();
    }

    for (const Scan &scan : scans_) {
        // A vanished page has no records, so its tuples stay counted
        // live and the collector fails on its unit.
        const flash::PageRecords records = Medium::records(scan.page);
        for (std::uint16_t slot = 0; slot < records.size(); ++slot) {
            const auto &rec = records[slot];
            auto chain = map_.find(rec.key);
            if (!chain)
                continue;
            const auto *entry = chain.find(rec.version);
            if (entry == nullptr || entry->loc.addr != scan.addr ||
                entry->loc.slot != slot)
                continue; // dead or already moved
            // Live: remap through the shared pack buffer
            // ("puts or remapped keys", section 5).
            acks_.push_back(packLog_.append(rec, true));
        }
    }
    packLog_.flushNow();
    for (auto &ack : acks_)
        co_await ack;
    acks_.clear();
    scans_.clear();
}

template <class Medium>
std::size_t
MultiVersionKv<Medium>::rebuild()
{
    map_.clear();
    gc_.reset();

    std::size_t recovered = 0;
    medium_.scan([&](Addr addr, flash::PageRecords page) {
        for (std::uint16_t slot = 0; slot < page.size(); ++slot) {
            const auto &rec = page[slot];
            auto chain = map_.getOrCreate(rec.key);
            if (chain.append(rec.version, Loc{addr, slot})) {
                ++gc_.live(Medium::unitOf(addr));
                ++recovered;
            }
        }
    });
    return recovered;
}

template class MultiVersionKv<FlashPages>;
template class MultiVersionKv<SftlLbas>;

} // namespace ftl
