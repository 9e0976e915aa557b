#include "ftl/sftl.hh"

#include "common/logging.hh"

namespace ftl {

namespace {

constexpr std::size_t kStripes = 64;

} // namespace

Sftl::Sftl(sim::Simulator &sim, flash::SsdDevice &device)
    : sim_(sim),
      blocks_(device, 2),
      lbaMap_(static_cast<std::uint64_t>(
                  static_cast<double>(device.geometry().totalPages()) *
                  (1.0 - kReserveFraction)),
              flash::kNoPage),
      owners_(device.geometry().totalPages(), -1),
      gc_(sim, blocks_, *this, stats_,
          {.name = "sftl",
           .perUnit = blocks_.pagesPerUnit(),
           .lowFraction = kGcTriggerFraction,
           .highFraction = kGcTargetFraction,
           .victimsStat = "sftl.gc_victims",
           .reclaimsStat = "sftl.gc_erases"})
{
}

std::int64_t &
Sftl::owner(flash::PageAddr addr)
{
    return owners_[static_cast<std::size_t>(addr.block) *
                       blocks_.pagesPerUnit() +
                   addr.page];
}

void
Sftl::remap(Lba lba, flash::PageAddr addr)
{
    flash::PageAddr &slot = lbaMap_[static_cast<std::size_t>(lba)];
    if (slot != flash::kNoPage) {
        owner(slot) = -1;
        --gc_.live(slot.block);
    }
    slot = addr;
    if (addr != flash::kNoPage) {
        owner(addr) = lba;
        ++gc_.live(addr.block);
    }
}

bool
Sftl::mapped(Lba lba) const
{
    return lbaMap_[static_cast<std::size_t>(lba)] != flash::kNoPage;
}

flash::PageRecords
Sftl::peek(Lba lba) const
{
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        return {};
    return blocks_.peek(addr);
}

sim::Task<std::optional<flash::PageData>>
Sftl::read(Lba lba)
{
    reads_.inc();
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        co_return std::nullopt;
    blocks_.pin(addr.block);
    const flash::PageRecords page = co_await blocks_.read(addr);
    flash::PageData copy{{page.begin(), page.end()}};
    blocks_.unpin(addr.block);
    co_return copy;
}

sim::Task<PutStatus>
Sftl::write(Lba lba, flash::PageData data)
{
    writes_.inc();
    const flash::PageAddr addr = co_await gc_.allocate(kUserStream, 2);
    co_await blocks_.write(addr, std::move(data));
    blocks_.written(addr);
    remap(lba, addr);
    gc_.kick();
    co_return PutStatus::Ok;
}

sim::Task<void>
Sftl::trim(Lba lba)
{
    trims_.inc();
    remap(lba, flash::kNoPage);
    co_return;
}

sim::Task<void>
Sftl::relocate(const std::vector<std::uint32_t> &victims)
{
    // A serial collector cannot outpace the write stream through a
    // saturated device. Every mover arrives before this frame resumes,
    // so the quorum can live here.
    std::uint32_t moves = 0;
    for (const std::uint32_t vb : victims)
        moves += gc_.live(vb);
    sim::Quorum done(sim_, moves);
    for (const std::uint32_t vb : victims) {
        for (std::uint32_t pg = 0; pg < blocks_.pagesPerUnit(); ++pg) {
            if (owner({vb, pg}) >= 0)
                sim::spawn(moveValidPage({vb, pg}, &done));
        }
    }
    co_await done.wait();
}

sim::Task<void>
Sftl::moveValidPage(flash::PageAddr addr, sim::Quorum *done)
{
    const Lba lba = owner(addr);
    const flash::PageRecords page = co_await blocks_.read(addr);
    flash::PageData copy{{page.begin(), page.end()}};
    gcPageReads_.inc();

    const flash::PageAddr dst = co_await gc_.allocate(kMoveStream, 1);
    co_await blocks_.write(dst, std::move(copy));
    blocks_.written(dst);
    gcPageWrites_.inc();

    // The LBA may have been overwritten or trimmed while the copy was
    // in flight; only remap if we still own it.
    if (lbaMap_[static_cast<std::size_t>(lba)] == addr)
        remap(lba, dst);
    done->arrive();
}

SingleVersionKv::SingleVersionKv(sim::Simulator &sim, Sftl &sftl,
                                 const Config &config)
    : sim_(sim), sftl_(sftl), config_(config)
{
    const std::uint64_t lbas_needed =
        (config.capacityKeys + flash::kRecordsPerPage - 1) /
        flash::kRecordsPerPage;
    if (lbas_needed > sftl.logicalBlocks())
        FATAL("SingleVersionKv: " << config.capacityKeys
                                  << " keys exceed device capacity");
    for (std::size_t i = 0; i < kStripes; ++i)
        stripes_.push_back(std::make_unique<sim::Semaphore>(sim, 1));
}

Lba
SingleVersionKv::lbaOf(Key key) const
{
    return static_cast<Lba>(key / flash::kRecordsPerPage);
}

std::uint32_t
SingleVersionKv::slotOf(Key key) const
{
    return static_cast<std::uint32_t>(key % flash::kRecordsPerPage);
}

sim::Semaphore &
SingleVersionKv::stripe(Lba lba)
{
    return *stripes_[static_cast<std::size_t>(lba) % kStripes];
}

sim::Task<GetResult>
SingleVersionKv::get(Key key, Version /* at: single version only */)
{
    const Time start = sim_.now();
    gets_.inc();
    if (key >= config_.capacityKeys)
        co_return GetResult::miss();
    auto page = co_await sftl_.read(lbaOf(key));
    if (!page.has_value())
        co_return GetResult::miss();
    const auto slot = slotOf(key);
    if (slot >= page->records.size() || page->records[slot].key != key)
        co_return GetResult::miss();
    const auto &rec = page->records[slot];
    GetResult result;
    result.found = true;
    result.version = rec.version;
    result.value = rec.value;
    getLatency_.record(sim_.now() - start);
    co_return result;
}

sim::Task<PutStatus>
SingleVersionKv::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    puts_.inc();
    if (key >= config_.capacityKeys)
        co_return PutStatus::DeviceFull;
    const Lba lba = lbaOf(key);

    co_await stripe(lba).acquire();
    sim::Semaphore::Held held(stripe(lba));

    auto page = co_await sftl_.read(lba);
    flash::PageData data;
    if (page.has_value()) {
        data = std::move(*page);
    } else {
        for (std::uint32_t i = 0; i < flash::kRecordsPerPage; ++i)
            data.records.emplace_back().key = kUnwrittenKey;
    }
    auto &rec = data.records[slotOf(key)];
    if (rec.key == key && rec.version >= version) {
        // At-most-once / stale rejection (section 3.3): a
        // single-version store must not overwrite newer data.
        staleRejects_.inc();
        co_return PutStatus::StaleVersion;
    }
    rec.key = key;
    rec.version = version;
    rec.value = std::move(value);
    co_await sftl_.write(lba, std::move(data));
    putLatency_.record(sim_.now() - start);
    co_return PutStatus::Ok;
}

void
SingleVersionKv::setWatermark(Time)
{
    // Single-version: nothing to prune.
}

} // namespace ftl
