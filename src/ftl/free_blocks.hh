/**
 * @file
 * The flash FTLs' pool of erased, unallocated blocks.
 *
 * Opening a block takes the least-worn free block, first-freed among
 * equals (wear-levelling). A block's erase count cannot change while
 * it is free — only GC erases, and only blocks it holds — so the
 * count read at push() orders the block until pop(). The pool is a
 * binary min-heap on (erase count, push order) over storage reserved
 * for every block, so push and pop are O(log n) and allocate nothing,
 * plus a free bitmap for the GC victim scan.
 */

#ifndef FTL_FREE_BLOCKS_HH
#define FTL_FREE_BLOCKS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace ftl {

class FreeBlockPool
{
  public:
    explicit FreeBlockPool(std::uint32_t blocks) : free_(blocks, false)
    {
        heap_.reserve(blocks);
    }

    std::size_t size() const { return heap_.size(); }
    bool contains(std::uint32_t block) const { return free_[block]; }

    /** Add an erased block whose erase count is @p erase_count. */
    void
    push(std::uint32_t block, std::uint32_t erase_count)
    {
        if (free_[block])
            PANIC("free block " << block << " pushed twice");
        free_[block] = true;
        heap_.push_back(Item{erase_count, block, nextSeq_++});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Take the least-worn block, first-freed among equals. */
    std::uint32_t
    pop()
    {
        if (heap_.empty())
            PANIC("pop from an empty free-block pool");
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const std::uint32_t block = heap_.back().block;
        heap_.pop_back();
        free_[block] = false;
        return block;
    }

    void
    clear()
    {
        heap_.clear();
        std::fill(free_.begin(), free_.end(), false);
    }

  private:
    struct Item
    {
        std::uint32_t erases;
        std::uint32_t block;
        std::uint64_t seq; // push order
    };

    /** Heap order: the top is the least (erases, seq). */
    static bool
    later(const Item &a, const Item &b)
    {
        return a.erases != b.erases ? a.erases > b.erases : a.seq > b.seq;
    }

    std::vector<Item> heap_;
    std::vector<bool> free_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace ftl

#endif // FTL_FREE_BLOCKS_HH
