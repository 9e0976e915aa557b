#include "ftl/dram.hh"

#include <algorithm>

namespace ftl {

sim::Task<GetResult>
DramBackend::get(Key key, Version at)
{
    // Look up at coroutine entry (atomic w.r.t. other coroutines), then
    // model the access latency: callers rely on the snapshot being
    // taken when the request is issued.
    gets_.inc();
    GetResult result;
    if (auto chain = map_.find(key)) {
        chain.pruneBelowWatermark(watermark_, [](const auto &) {});
        if (const auto *entry = chain.findAt(at)) {
            result.found = true;
            result.version = entry->version;
            result.value = entry->loc.value;
        }
    }
    co_await sim::sleepFor(sim_, kReadLatency);
    co_return result;
}

sim::Task<PutStatus>
DramBackend::put(Key key, Value value, Version version)
{
    // Mutate at entry, then charge the write latency: the new version
    // is visible to lookups issued after this call starts.
    puts_.inc();
    auto chain = map_.getOrCreate(key);
    chain.append(version, Stored{std::move(value)});
    chain.pruneBelowWatermark(watermark_, [](const auto &) {});
    co_await sim::sleepFor(sim_, kWriteLatency);
    co_return PutStatus::Ok;
}

sim::Task<void>
DramBackend::erase(Key key, Version version)
{
    deletes_.inc();
    co_await sim::sleepFor(sim_, kWriteLatency);
    map_.dropAtOrBelow(key, version, [](const auto &) {});
}

void
DramBackend::setWatermark(Time watermark)
{
    watermark_ = std::max(watermark_, watermark);
}

std::optional<Version>
DramBackend::versionAt(Key key, Version at)
{
    auto chain = map_.find(key);
    if (!chain)
        return std::nullopt;
    const auto *entry = chain.findAt(at);
    return entry == nullptr ? std::nullopt
                            : std::optional<Version>(entry->version);
}

std::size_t
DramBackend::versionCount(Key key) const
{
    return map_.versionCount(key);
}

} // namespace ftl
