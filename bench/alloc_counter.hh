/**
 * @file
 * Process-wide heap-allocation counter. Linking alloc_counter.cc into
 * a binary replaces its global operator new/delete with versions that
 * count every allocation (calls and bytes) before forwarding to
 * malloc/free, so a measurement reads exact allocations as the
 * difference of two snapshots around its window.
 *
 * Linked into sim_core, store_core and alloc_gate_test. None of them
 * is built with a sanitizer, whose runtime owns the allocator.
 */

#ifndef BENCH_ALLOC_COUNTER_HH
#define BENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace bench {

/** Allocations made by this process so far. */
struct AllocSnapshot
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;

    static AllocSnapshot take();
};

} // namespace bench

#endif // BENCH_ALLOC_COUNTER_HH
