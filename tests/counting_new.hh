/**
 * @file
 * Heap-allocation counter for the allocation-count tests. Linking
 * counting_new.cc replaces the global operator new/delete with
 * wrappers around malloc/free; every operator new call, plain or
 * aligned, scalar or array, increments g_allocCount.
 */

#ifndef LYNX_TESTS_COUNTING_NEW_HH
#define LYNX_TESTS_COUNTING_NEW_HH

#include <cstdint>

/** Number of global operator new calls made so far. */
extern std::uint64_t g_allocCount;

#endif // LYNX_TESTS_COUNTING_NEW_HH
