/**
 * @file
 * Counting replacements of the global operator new/delete, linked into
 * the allocation-count tests (counting_new.hh).
 */

#include "counting_new.hh"

#include <cstdlib>
#include <new>

std::uint64_t g_allocCount = 0;

// Counting wrappers around the global allocator. All variants must be
// covered: the engine uses both plain and aligned forms.
void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++g_allocCount;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (n + static_cast<std::size_t>(align) -
                                      1) &
                                         ~(static_cast<std::size_t>(align) -
                                           1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
