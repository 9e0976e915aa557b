#include "ftl/pack_log.hh"

#include "common/logging.hh"

namespace ftl {

PackLog::PackLog(sim::Simulator &sim, std::uint32_t page_bytes,
                 common::Duration pack_timeout,
                 std::function<void(std::vector<Pending>)> flush)
    : sim_(sim),
      pageBytes_(page_bytes),
      packTimeout_(pack_timeout),
      flush_(std::move(flush))
{
}

sim::Future<PutStatus>
PackLog::append(flash::Record record, bool relocation)
{
    if (record.sizeBytes > pageBytes_)
        PANIC("record larger than a page");
    if (bytes_ + record.sizeBytes > pageBytes_)
        doFlush(); // close the page that cannot fit this tuple

    const bool was_empty = buffer_.empty();
    buffer_.emplace_back(std::move(record), relocation, sim_);
    bytes_ += buffer_.back().record.sizeBytes;
    auto future = buffer_.back().ack.future();

    if (bytes_ >= pageBytes_) {
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
    bytes_ = 0;
    std::vector<Pending> batch;
    batch.swap(buffer_);
    // The next page most likely packs as many tuples as this one:
    // one allocation instead of regrowing from empty.
    buffer_.reserve(batch.size());
    flush_(std::move(batch));
}

} // namespace ftl
