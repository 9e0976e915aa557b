/**
 * @file
 * The storage-backend interface shared by all four backends the paper
 * evaluates: MFTL (unified multi-version FTL), VFTL (multi-version KV
 * layer stacked on a generic FTL), SFTL used as a single-version KV
 * store, and DRAM.
 *
 * SEMEL servers talk to a KvBackend; everything above (replication,
 * transactions) is backend-agnostic, exactly as in the paper where the
 * same MILANA code runs over DRAM, VFTL and MFTL (Figures 7 and 8).
 */

#ifndef FTL_KV_BACKEND_HH
#define FTL_KV_BACKEND_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/task.hh"

namespace ftl {

using common::Key;
using common::Time;
using common::Value;
using common::Version;

/** Result of a read. */
struct GetResult
{
    bool found = false;
    /** Stamp of the version returned. */
    Version version;
    Value value;

    static GetResult
    miss()
    {
        return GetResult{};
    }
};

/** Result of a write. */
enum class PutStatus
{
    Ok,
    /** Single-version backends reject writes older than the stored
     *  version (SEMEL's at-most-once rule, section 3.3). */
    StaleVersion,
    DeviceFull,
};

class KvBackend
{
  public:
    virtual ~KvBackend() = default;

    /**
     * Read the youngest version of @p key with stamp <= @p at.
     *
     * Single-version backends ignore @p at and return the only stored
     * version — the caller detects a non-snapshot read by comparing
     * the returned stamp with its own bound (this is precisely why
     * single-version storage aborts tardy read-only transactions in
     * Figure 6).
     */
    virtual sim::Task<GetResult> get(Key key, Version at) = 0;

    /** Convenience: read the youngest version. */
    sim::Task<GetResult> getLatest(Key key);

    /** Durably store a new version of @p key. */
    virtual sim::Task<PutStatus> put(Key key, Value value,
                                     Version version) = 0;

    /** Delete @p key at stamp @p version: remove every version of it
     *  stamped <= @p version. */
    virtual sim::Task<void> erase(Key key, Version version) = 0;

    /**
     * Advance the garbage-collection watermark (section 3.1): the
     * backend must retain, for every key, the youngest version with
     * stamp <= watermark and everything younger; older versions may be
     * discarded.
     */
    virtual void setWatermark(Time watermark) = 0;

    /**
     * Mapping-table-only lookup of the stamp of the youngest version
     * with stamp <= @p at. Synchronous: touches only the in-DRAM
     * mapping table, never the device — used by validation fast paths.
     * Returns nullopt when the backend keeps no in-DRAM version index
     * (e.g. a single-version store whose state lives on flash).
     */
    virtual std::optional<Version>
    versionAt(Key key, Version at)
    {
        (void)key;
        (void)at;
        return std::nullopt;
    }

    /**
     * Pre-size the in-DRAM mapping structures for @p keys distinct
     * keys so bulk load performs zero rehashes. Synchronous; no-op
     * for backends without a resizable index.
     */
    virtual void
    reserveKeys(std::uint64_t keys)
    {
        (void)keys;
    }

    /**
     * Exact bytes held by the in-DRAM data plane (mapping table slots
     * + version-chain arena slabs); 0 when the backend keeps no
     * in-DRAM index. Deterministic — computed from table capacity and
     * arena accounting, not from the host allocator.
     */
    virtual std::uint64_t
    dataPlaneBytes() const
    {
        return 0;
    }

    /**
     * Start the backend's background processes (the FTLs' watermark
     * sweep). Call after bulk load: populate drains the simulator, and
     * a periodic process would keep it from draining.
     */
    virtual void start() {}

    virtual common::StatSet &stats() = 0;
};

} // namespace ftl

#endif // FTL_KV_BACKEND_HH
