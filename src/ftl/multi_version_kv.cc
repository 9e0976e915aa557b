#include "ftl/multi_version_kv.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "ftl/mftl.hh"
#include "ftl/vftl.hh"
#include "sim/sync.hh"

namespace ftl {

using common::kMillisecond;
using common::kSecond;

namespace {

/** Upper bound on waiting for GC before declaring the FTL wedged. */
constexpr common::Duration kAllocTimeout = 30 * kSecond;

} // namespace

template <class Medium>
MultiVersionKv<Medium>::MultiVersionKv(sim::Simulator &sim,
                                       typename Medium::Device &device,
                                       const Config &config)
    : sim_(sim),
      medium_(device),
      config_(config),
      liveTuples_(medium_.units(), 0),
      victimized_(medium_.units(), false),
      packLog_(sim, medium_.pageSize(), config.packTimeout,
               [this](std::vector<Pending> batch) {
                   flushBatch(std::move(batch));
               }),
      spaceFreed_(sim)
{
    const auto units = static_cast<double>(medium_.units());
    gcLowWater_ = std::max<std::uint64_t>(
        3, static_cast<std::uint64_t>(config_.reserveFraction * units));
    // Hysteresis: once triggered, collect up to the high-water mark so
    // occupancy does not ratchet up to the trigger level and stay
    // there (which would leave every victim nearly fully live).
    gcHighWater_ = std::max<std::uint64_t>(
        gcLowWater_ + 2,
        static_cast<std::uint64_t>(config.gcTargetFraction * units));
}

template <class Medium>
void
MultiVersionKv<Medium>::start()
{
    sim::spawn(watermarkSweep());
}

template <class Medium>
bool
MultiVersionKv<Medium>::needGc() const
{
    // Proactive collection: pursue the high-water mark whenever
    // reclaimable space exists, instead of waiting for the cliff.
    return medium_.freeUnits() < gcHighWater_;
}

template <class Medium>
void
MultiVersionKv<Medium>::kickGc()
{
    if (!gcRunning_ && needGc()) {
        gcRunning_ = true;
        sim::spawn(gcOnce());
    }
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
    const std::size_t floor =
        std::min<std::size_t>(gcLowWater_,
                              std::max<std::size_t>(2, gcLowWater_ / 4));
    while (medium_.freeUnits() < floor) {
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC(Medium::kName << ": device full — writes cannot be "
                                   "admitted");
        co_await spaceFreed_.future().withTimeout(100 * kMillisecond);
    }
}

template <class Medium>
sim::Task<typename Medium::Addr>
MultiVersionKv<Medium>::allocate(bool has_relocation)
{
    const Time start = sim_.now();
    for (;;) {
        // Relocation batches (GC progress) may take the last free unit;
        // user-only batches throttle earlier so the collector always
        // has working room (write-cliff backpressure, as real FTLs
        // apply).
        if (const auto addr = medium_.tryAllocate(has_relocation ? 1 : 3)) {
            kickGc();
            co_return *addr;
        }
        kickGc();
        if (sim_.now() - start > kAllocTimeout)
            PANIC(Medium::kName << ": device full — GC cannot free space "
                                   "(live data exceeds usable capacity)");
        co_await spaceFreed_.future().withTimeout(kSecond);
    }
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

    const Addr addr = co_await allocate(has_relocation);

    // The tuples move into a recycled page buffer, sized for a full
    // page so that any later batch fits it; the publish loop reads
    // them back from the programmed page.
    flash::PageData page = medium_.pageBuffer();
    page.records.reserve(std::max<std::size_t>(
        batch.size(), medium_.pageSize() / config_.recordSize));
    for (auto &p : batch)
        page.records.push_back(std::move(p.record));

    co_await medium_.write(addr, std::move(page));
    medium_.written(addr);
    unitsWritten_.inc();

    // Publish the new locations in the mapping table.
    const flash::PageData &programmed = medium_.peek(addr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const flash::Record &rec = programmed.records[i];
        const Loc loc{addr, static_cast<std::uint16_t>(i)};
        if (rec.tombstone) {
            // A durable delete: drop the versions it covers.
            map_.dropAtOrBelow(rec.key, rec.version,
                               [this](const auto &e) { dropEntry(e); });
        } else if (batch[i].relocation) {
            auto chain = map_.find(rec.key);
            auto *entry = chain ? chain.find(rec.version) : nullptr;
            if (entry != nullptr) {
                --liveTuples_[Medium::unitOf(entry->loc.addr)];
                entry->loc = loc;
                ++liveTuples_[Medium::unitOf(addr)];
                gcRemapped_.inc();
            }
            // else: the version was pruned while in flight — the new
            // copy is dead on arrival, which is fine.
        } else {
            auto chain = map_.getOrCreate(rec.key);
            if (chain.append(rec.version, loc)) {
                ++liveTuples_[Medium::unitOf(addr)];
                pruneChain(chain);
            }
            // else: idempotent duplicate; dead on arrival.
        }
        batch[i].ack.set(PutStatus::Ok);
    }
    packLog_.recycle(std::move(batch));
    kickGc();
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
    GetResult result;
    if (page && loc.slot < page->records.size() &&
        page->records[loc.slot].key == key &&
        page->records[loc.slot].version == version) {
        result.found = true;
        result.version = version;
        result.value = page->records[loc.slot].value;
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

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::erase(Key key, Version version)
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
    --liveTuples_[Medium::unitOf(entry.loc.addr)];
    versionsPruned_.inc();
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::watermarkSweep()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, config_.watermarkSweepInterval);
        // Only multi-version chains can lose a version; the store
        // indexes exactly those, so the sweep never walks the table.
        map_.pruneMultiVersion(
            watermark_, [this](const auto &e) { dropEntry(e); });
        kickGc();
    }
}

template <class Medium>
std::int64_t
MultiVersionKv<Medium>::pickVictim(std::uint64_t per_unit) const
{
    // Cheapest collectable unit by the medium's cost, first among
    // equals. A fully-live victim frees nothing; it is unreclaimable.
    std::int64_t victim = -1;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t u = 0; u < liveTuples_.size(); ++u) {
        if (victimized_[u] || liveTuples_[u] >= per_unit ||
            !medium_.collectable(u))
            continue;
        const std::uint64_t cost = medium_.victimCost(u, liveTuples_[u]);
        if (cost < best_cost) {
            best_cost = cost;
            victim = u;
        }
    }
    return victim;
}

template <class Medium>
sim::Task<void>
MultiVersionKv<Medium>::gcOnce()
{
    // Victims are processed in batches: their live tuples re-pack
    // tightly together, so a pass that reclaims V units consumes only
    // about live_total / tuples_per_unit fresh ones (per-victim
    // flushing would burn one fresh unit per victim and make no net
    // progress). Selection is bounded by the current free pool so the
    // relocation writes can never exhaust it (which would deadlock the
    // collector against its own flushes).
    const std::uint64_t per_unit =
        static_cast<std::uint64_t>(medium_.pagesPerUnit()) *
        (medium_.pageSize() / config_.recordSize);
    using Scan = typename GcScratch::Scan;
    auto &victims = gc_.victims;
    auto &scans = gc_.scans;
    auto &acks = gc_.acks;
    while (medium_.freeUnits() < gcHighWater_) {
        victims.clear();
        std::uint64_t live_total = 0;
        while (victims.size() < Medium::kMaxVictims) {
            const std::int64_t v = pickVictim(per_unit);
            if (v < 0)
                break;
            const auto vu = static_cast<std::uint32_t>(v);
            const std::uint64_t projected = Medium::projectedUnits(
                live_total + liveTuples_[vu], per_unit);
            // Leave at least one free unit outside the pass.
            if (projected + 1 > medium_.freeUnits() && !victims.empty())
                break;
            victimized_[vu] = true;
            victims.push_back(vu);
            live_total += liveTuples_[vu];
            const std::uint64_t consumed =
                (live_total + per_unit - 1) / per_unit;
            if (victims.size() >= consumed + Medium::kNetUnits)
                break; // the pass already nets enough units
        }
        if (victims.empty())
            break;

        // Read every victim page in parallel (pins held across the
        // scan): a serial collector cannot outpace the user write
        // stream through a saturated device. Every reader arrives
        // before this frame resumes, so the quorum lives here.
        for (const std::uint32_t vu : victims) {
            gcVictims_.inc();
            if (liveTuples_[vu] == 0)
                continue;
            medium_.pin(vu);
            gc_.pinned.push_back(vu);
            medium_.forEachPage(
                vu, [&](Addr addr) { scans.push_back(Scan{addr}); });
        }
        if (!scans.empty()) {
            sim::Quorum done(sim_, static_cast<std::uint32_t>(scans.size()));
            for (Scan &scan : scans) {
                sim::spawn([](MultiVersionKv *self, Scan *scan,
                              sim::Quorum *done) -> sim::Task<void> {
                    scan->page = co_await self->medium_.read(scan->addr);
                    self->gcReads_.inc();
                    done->arrive();
                }(this, &scan, &done));
            }
            co_await done.wait();
        }

        for (const Scan &scan : scans) {
            // A vanished page keeps its tuples counted live, so the
            // reclaim loop below fails on its unit.
            if (!scan.page)
                continue;
            for (std::uint16_t slot = 0;
                 slot < scan.page->records.size(); ++slot) {
                const auto &rec = scan.page->records[slot];
                if (rec.tombstone)
                    continue;
                auto chain = map_.find(rec.key);
                if (!chain)
                    continue;
                const auto *entry = chain.find(rec.version);
                if (entry == nullptr || entry->loc.addr != scan.addr ||
                    entry->loc.slot != slot)
                    continue; // dead or already moved
                // Live: remap through the shared pack buffer
                // ("puts or remapped keys", section 5).
                acks.push_back(packLog_.append(rec, true));
            }
        }
        for (const std::uint32_t vu : gc_.pinned)
            medium_.unpin(vu);
        gc_.pinned.clear();
        packLog_.flushNow();
        for (auto &ack : acks)
            co_await ack;
        acks.clear();
        scans.clear();

        for (const std::uint32_t vu : victims) {
            if (liveTuples_[vu] != 0)
                PANIC(Medium::kName << ": victim unit " << vu
                                    << " still has " << liveTuples_[vu]
                                    << " live tuples after remap");
            co_await medium_.reclaim(vu);
            victimized_[vu] = false;
            medium_.release(vu);
            gcReclaims_.inc();

            auto freed = spaceFreed_;
            spaceFreed_ = sim::Promise<bool>(sim_);
            freed.set(true);
        }
    }
    gcRunning_ = false;
}

template <class Medium>
std::size_t
MultiVersionKv<Medium>::rebuild()
{
    map_.clear();
    std::fill(liveTuples_.begin(), liveTuples_.end(), 0);
    std::fill(victimized_.begin(), victimized_.end(), false);

    std::size_t recovered = 0;
    // The medium scans in address order, not write order, so a
    // tombstone is applied only once every version it covers is back.
    std::vector<std::pair<Key, Version>> tombstones;
    medium_.scan([&](Addr addr, const flash::PageData &page) {
        for (std::uint16_t slot = 0; slot < page.records.size(); ++slot) {
            const auto &rec = page.records[slot];
            if (rec.tombstone) {
                tombstones.emplace_back(rec.key, rec.version);
                continue;
            }
            auto chain = map_.getOrCreate(rec.key);
            if (chain.append(rec.version, Loc{addr, slot})) {
                ++liveTuples_[Medium::unitOf(addr)];
                ++recovered;
            }
        }
    });
    for (const auto &[key, version] : tombstones)
        recovered -= map_.dropAtOrBelow(
            key, version, [this](const auto &e) { dropEntry(e); });
    return recovered;
}

template class MultiVersionKv<FlashPages>;
template class MultiVersionKv<SftlLbas>;

} // namespace ftl
