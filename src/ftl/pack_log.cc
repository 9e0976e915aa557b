#include "ftl/pack_log.hh"

namespace ftl {

PackLog::PackLog(sim::Simulator &sim, common::Duration pack_timeout,
                 std::function<void(std::vector<Pending>)> flush)
    : sim_(sim), packTimeout_(pack_timeout), flush_(std::move(flush))
{
}

sim::Future<PutStatus>
PackLog::append(flash::Record record, bool relocation)
{
    const bool was_empty = buffer_.empty();
    buffer_.emplace_back(std::move(record), relocation, sim_);
    auto future = buffer_.back().ack.future();

    if (buffer_.size() >= flash::kRecordsPerPage) {
        doFlush();
    } else if (was_empty) {
        armTimer();
    }
    return future;
}

void
PackLog::flushNow()
{
    if (!buffer_.empty())
        doFlush();
}

void
PackLog::armTimer()
{
    const std::uint64_t epoch = epoch_;
    sim_.schedule(packTimeout_, [this, epoch] {
        // Fires only if the batch it was armed for is still open.
        if (epoch == epoch_ && !buffer_.empty())
            doFlush();
    });
}

void
PackLog::doFlush()
{
    ++epoch_;
    std::vector<Pending> batch;
    batch.swap(buffer_);
    if (!spares_.empty()) {
        buffer_.swap(spares_.back());
        spares_.pop_back();
    } else {
        // The next page most likely packs as many tuples as this one:
        // one allocation instead of regrowing from empty.
        buffer_.reserve(batch.size());
    }
    flush_(std::move(batch));
}

void
PackLog::recycle(std::vector<Pending> batch)
{
    batch.clear();
    spares_.push_back(std::move(batch));
}

} // namespace ftl
