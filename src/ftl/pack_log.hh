/**
 * @file
 * The packing logic of the paper's section 5: key-value tuples are
 * 512 B while a flash page is 4 KB, so the FTL "waits for up to 1 ms
 * (tunable) to pack data of multiple keys (puts or remapped keys) into
 * a page". A page flushes when it holds flash::kRecordsPerPage tuples
 * or when the pack timer for its oldest tuple expires, whichever comes
 * first.
 *
 * Put latency therefore includes the residual pack wait — the reason
 * MFTL's put latency in Table 1 exceeds VFTL's: VFTL garbage-collects
 * more (10% capacity reserved at two levels), its remapped tuples fill
 * pages faster, and its tuples wait less.
 *
 * PackLog owns only the buffering and timing; the owning FTL supplies
 * the flush function that allocates a page, programs the device, and
 * updates its mapping table.
 */

#ifndef FTL_PACK_LOG_HH
#define FTL_PACK_LOG_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "flash/ssd.hh"
#include "ftl/kv_backend.hh"
#include "sim/future.hh"

namespace ftl {

/** A tuple waiting in the pack buffer. */
struct Pending
{
    flash::Record record;
    /** True when this is a GC remap rather than a new write. */
    bool relocation = false;
    /** Resolved once the tuple is durable on flash. */
    sim::Promise<PutStatus> ack;

    Pending(flash::Record r, bool reloc, sim::Simulator &sim)
        : record(std::move(r)), relocation(reloc), ack(sim)
    {
    }
};

class PackLog
{
  public:
    /**
     * @param flush Called with a full (or timed-out) batch; must
     *              eventually resolve every Pending's ack. Invoked
     *              from event context; implementations spawn a task.
     */
    PackLog(sim::Simulator &sim, common::Duration pack_timeout,
            std::function<void(std::vector<Pending>)> flush);

    /**
     * Queue a tuple; returns a future resolved when it is durable.
     * Triggers an immediate flush when the page fills.
     */
    sim::Future<PutStatus> append(flash::Record record, bool relocation);

    /** Force out a partial page (e.g. at the end of a GC pass). */
    void flushNow();

    /** Hand back a flushed batch once done with it: its capacity
     *  becomes a later page's buffer instead of a fresh allocation. */
    void recycle(std::vector<Pending> batch);

    bool empty() const { return buffer_.empty(); }

  private:
    void armTimer();
    void doFlush();

    sim::Simulator &sim_;
    common::Duration packTimeout_;
    std::function<void(std::vector<Pending>)> flush_;
    std::vector<Pending> buffer_;
    /** Recycled, empty batch vectors (see recycle()). */
    std::vector<std::vector<Pending>> spares_;
    /** Invalidates pack timers armed for batches already flushed. */
    std::uint64_t epoch_ = 0;
};

} // namespace ftl

#endif // FTL_PACK_LOG_HH
