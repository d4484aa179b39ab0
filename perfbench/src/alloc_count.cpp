// Replaces the global allocation functions so the benchmark can count heap
// allocations per stage. The count is a plain thread-local integer: cheap
// enough to leave on in untraced runs, exact for the single-threaded mirror
// loops that read it.
#include <algorithm>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

thread_local std::uint64_t allocations = 0;

void* counted_alloc(std::size_t size)
{
    ++allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align)
{
    ++allocations;
    const auto alignment = std::max(static_cast<std::size_t>(align), sizeof(void*));
    const std::size_t rounded =
        (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
    if (void* p = std::aligned_alloc(alignment, rounded)) return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align)
{
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align)
{
    return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    ++allocations;
    return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    ++allocations;
    return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t thread_allocations() { return allocations; }

} // namespace perfbench
