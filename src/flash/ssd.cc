#include "flash/ssd.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>

#include <sys/mman.h>

#include "common/logging.hh"

namespace flash {

SsdDevice::SsdDevice(sim::Simulator &sim, const Geometry &geometry)
    : sim_(sim),
      geometry_(geometry),
      blocks_(geometry.numBlocks),
      // Raw, never-initialized storage: a page's slots are first
      // touched by its first program, so an unwritten page costs no
      // host memory.
      records_(static_cast<Record *>(::operator new(
          geometry.totalPages() * kRecordsPerPage * sizeof(Record),
          std::align_val_t{kOsPage}))),
      counts_(geometry.totalPages(), kErased),
      pins_(geometry.numBlocks, 0),
      queue_(sim, geometry.queueDepth)
{
    channels_.reserve(geometry.numChannels);
    channelOps_.reserve(geometry.numChannels);
    for (std::uint32_t c = 0; c < geometry.numChannels; ++c) {
        channels_.push_back(std::make_unique<sim::Semaphore>(sim, 1));
        channelOps_.push_back(
            &stats_.counter("ssd.channel." + std::to_string(c) + ".ops"));
    }
    channelFactor_.assign(geometry.numChannels, 1.0);
}

SsdDevice::~SsdDevice()
{
    clearPages(0, counts_.size());
}

void
SsdDevice::clearPages(std::size_t first, std::size_t last)
{
    for (std::size_t i = first; i < last; ++i) {
        if (counts_[i] != kErased)
            std::destroy_n(slots(i), counts_[i]);
        counts_[i] = kErased;
    }
}

sim::Task<void>
SsdDevice::service(std::uint32_t block, common::Duration latency,
                   const char *op)
{
    const std::uint32_t chan = block % geometry_.numChannels;
    if (channelFactor_[chan] != 1.0)
        latency = static_cast<common::Duration>(
            static_cast<double>(latency) * channelFactor_[chan]);
    common::ScopedSpan span(trace_, "flash.ssd.op", op);
    span.setArg(chan);
    const common::Time entered = sim_.now();
    co_await queue_.acquire();
    // Admit/release instants bracket the hardware-queue occupancy:
    // their concurrency per node is the device queue depth (bounded by
    // Geometry::queueDepth — the invariant monitor checks it), and the
    // admit's arg2 is the pre-admission queueing delay, letting
    // trace-report split flash.ssd.op into queueing vs. device time.
    trace_.instant("flash.ssd.admit", op, chan, sim_.now() - entered);
    auto &channel = *channels_[chan];
    co_await channel.acquire();
    // Time from arrival to channel grant: the queueing delay Table 1's
    // GC-interference numbers come from.
    queueWait_.record(sim_.now() - entered);
    channelOps_[chan]->inc();
    co_await sim::sleepFor(sim_, latency);
    channel.release();
    queue_.release();
    trace_.instant("flash.ssd.release", op, chan);
}

sim::Task<PageRecords>
SsdDevice::readPage(PageAddr addr)
{
    if (addr.block >= blocks_.size() ||
        addr.page >= geometry_.pagesPerBlock)
        PANIC("readPage out of range: " << addr.block << "/" << addr.page);
    if (pageState(addr) != PageState::Programmed)
        PANIC("read of unprogrammed page " << addr.block << "/"
                                           << addr.page);
    co_await service(addr.block, geometry_.readLatency, "read");
    // Read-retry storm (gray failure): the controller re-reads with
    // tuned thresholds, burning more channel time per user read.
    for (std::uint32_t extra = 0;
         retryProb_ > 0.0 && extra < retryMax_ &&
         faultRng_.nextBool(retryProb_);
         ++extra) {
        readRetries_.inc();
        co_await service(addr.block, geometry_.readLatency, "read_retry");
    }
    reads_.inc();
    co_return peekPage(addr);
}

sim::Task<void>
SsdDevice::programPage(PageAddr addr, PageData data)
{
    if (addr.block >= blocks_.size() ||
        addr.page >= geometry_.pagesPerBlock)
        PANIC("programPage out of range");
    auto &block = blocks_[addr.block];
    const std::size_t at = pageIndex(addr);
    if (counts_[at] != kErased)
        PANIC("program of non-erased page " << addr.block << "/"
                                            << addr.page);
    if (addr.page != block.nextProgramPage)
        PANIC("out-of-order program within block " << addr.block << ": page "
              << addr.page << " but next is " << block.nextProgramPage);
    if (data.records.size() > kRecordsPerPage)
        PANIC("page overflow: " << data.records.size() << " records");

    // Commit functional state before the timing wait so a reader that
    // observes the mapping update (made by the FTL after we return)
    // always finds the data. NAND-wise the data is on the page once
    // program completes; the FTL publishes the mapping only after that.
    block.nextProgramPage = addr.page + 1;
    std::uninitialized_move(data.records.begin(), data.records.end(),
                            slots(at));
    counts_[at] = static_cast<std::uint8_t>(data.records.size());

    co_await service(addr.block, geometry_.writeLatency, "program");
    programs_.inc();
}

sim::Task<void>
SsdDevice::eraseBlock(std::uint32_t block_index)
{
    if (block_index >= blocks_.size())
        PANIC("eraseBlock out of range");
    // Wait for read-pins to drain so no in-flight read sees erased data.
    while (pins_[block_index] != 0)
        co_await sim::sleepFor(sim_, 10 * common::kMicrosecond);

    co_await service(block_index, geometry_.eraseLatency, "erase");

    auto &block = blocks_[block_index];
    // A page's records stay put until here: readers hold a span of
    // them (under a pin) across suspensions.
    const std::size_t first = pageIndex({block_index, 0});
    const std::size_t last = first + geometry_.pagesPerBlock;
    clearPages(first, last);
    // Hand the OS pages wholly inside the block's slots back (the
    // process's own memory; no system setting): wear-levelling
    // programs every block in turn, and the store's host memory must
    // follow the programmed pages, not every page ever programmed. A
    // reprogram faults them in again, zeroed. An OS page shared with a
    // neighbouring block stays: that block's records may live in it.
    const auto lo = (reinterpret_cast<std::uintptr_t>(slots(first)) +
                     kOsPage - 1) & ~(kOsPage - 1);
    const auto hi =
        reinterpret_cast<std::uintptr_t>(slots(last)) & ~(kOsPage - 1);
    if (lo < hi)
        ::madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_DONTNEED);
    block.nextProgramPage = 0;
    ++block.eraseCount;
    erases_.inc();
}

PageState
SsdDevice::pageState(PageAddr addr) const
{
    return counts_[pageIndex(addr)] == kErased ? PageState::Erased
                                               : PageState::Programmed;
}

PageRecords
SsdDevice::peekPage(PageAddr addr) const
{
    const std::size_t at = pageIndex(addr);
    if (counts_[at] == kErased)
        PANIC("peek of unprogrammed page");
    return {slots(at), counts_[at]};
}

std::uint32_t
SsdDevice::eraseCount(std::uint32_t block) const
{
    return blocks_[block].eraseCount;
}

std::uint32_t
SsdDevice::wearSpread() const
{
    std::uint32_t lo = blocks_[0].eraseCount;
    std::uint32_t hi = lo;
    for (const auto &b : blocks_) {
        lo = std::min(lo, b.eraseCount);
        hi = std::max(hi, b.eraseCount);
    }
    return hi - lo;
}

void
SsdDevice::unpinBlock(std::uint32_t block)
{
    if (pins_[block] == 0)
        PANIC("unpin of unpinned block " << block);
    --pins_[block];
}

std::uint32_t
SsdDevice::inflightOps() const
{
    return geometry_.queueDepth -
           static_cast<std::uint32_t>(queue_.available());
}

void
SsdDevice::setChannelLatencyFactor(std::uint32_t channel, double factor)
{
    if (channel >= channelFactor_.size())
        PANIC("setChannelLatencyFactor: no channel " << channel);
    channelFactor_[channel] = factor;
    grayChannelChanges_.inc();
}

void
SsdDevice::setReadRetryStorm(double probability, std::uint32_t max_extra)
{
    retryProb_ = probability;
    retryMax_ = max_extra;
}

sim::Task<void>
SsdDevice::gcStormLoop(std::uint32_t channel)
{
    // Synthetic background erases: pure timing load on the channel
    // (no functional state is touched), through the same queue +
    // channel mutex as user ops, so admission stays bounded by the
    // hardware queue depth.
    while (gcStorm_ && !sim_.stopRequested()) {
        gcStormOps_.inc();
        co_await service(channel, geometry_.eraseLatency, "gc_storm");
    }
}

void
SsdDevice::startGcStorm()
{
    if (gcStorm_)
        return;
    gcStorm_ = true;
    gcStorms_.inc();
    for (std::uint32_t c = 0; c < geometry_.numChannels; ++c)
        sim::spawn(gcStormLoop(c));
}

std::uint32_t
SsdDevice::busyChannels() const
{
    std::uint32_t n = 0;
    for (const auto &ch : channels_)
        if (ch->available() == 0)
            ++n;
    return n;
}

} // namespace flash
