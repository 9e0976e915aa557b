/**
 * @file
 * MFTL: the paper's unified multi-version flash translation layer
 * (section 3.1, Contribution 3).
 *
 * A single in-DRAM mapping table maps each key directly to the
 * physical locations of its versions (no LBA indirection): the shared
 * multi-version layer (multi_version_kv.hh) placed straight on erase
 * blocks of the raw device (flash_pages.hh). Version management is
 * integrated with flash garbage collection: the shared collector
 * (space_collector.hh) victimizes the blocks with the fewest live
 * tuples (ties broken toward least-worn, providing wear-leveling), the
 * layer re-packs their live tuples through the same pack buffer as
 * user writes, and each block is erased once they are durable.
 */

#ifndef FTL_MFTL_HH
#define FTL_MFTL_HH

#include "ftl/flash_pages.hh"
#include "ftl/multi_version_kv.hh"

namespace ftl {

using Mftl = MultiVersionKv<FlashPages>;
extern template class MultiVersionKv<FlashPages>;

} // namespace ftl

#endif // FTL_MFTL_HH
