#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        std::abort();
    return p;
}

} // namespace

bench::AllocSnapshot
bench::AllocSnapshot::take()
{
    return {g_allocCalls.load(std::memory_order_relaxed),
            g_allocBytes.load(std::memory_order_relaxed)};
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
