// Program-wide heap-allocation counter for zero-allocation tests.
//
// alloc_counter.cpp replaces the global operator new/delete family of the
// test binary (plain, array, over-aligned and nothrow forms); every
// allocation through any of them counts. Take heap_allocations() before
// the code under test and compare after.
#pragma once

#include <cstdint>

namespace tcppr::testutil {

std::uint64_t heap_allocations();

}  // namespace tcppr::testutil
