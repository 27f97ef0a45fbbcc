// Replaces the global operator new and delete of the test binary that
// includes it, so a test can show that a call allocates nothing: it reads
// `g_allocations` before and after.  Include it from one source file of a
// binary only (each test binary is one file).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

/// Every global operator new of this binary.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
    ++g_allocations;
    if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
    throw std::bad_alloc();
}
// Out of line, so the compiler never pairs a `new` it inlined with this
// `free` (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* memory) noexcept {
    std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
    std::free(memory);
}
