// Counting replacements of the global operator new/delete, for tests
// that bound allocations by exact counts and sizes, which hold on any
// machine. Include this header from exactly one source file of a test
// executable: the replacement applies to the whole process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace wimi::testutil {

inline std::atomic<std::size_t> g_allocations{0};
inline std::atomic<std::size_t> g_largest_allocation{0};

inline void* counted_alloc(std::size_t size) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_allocation.compare_exchange_weak(
               largest, size, std::memory_order_relaxed)) {
    }
    return std::malloc(size == 0 ? 1 : size);
}

/// operator new calls since the process started.
inline std::size_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

/// Bytes of the largest single operator new since the last reset.
inline std::size_t largest_allocation() {
    return g_largest_allocation.load(std::memory_order_relaxed);
}

inline void reset_largest_allocation() {
    g_largest_allocation.store(0, std::memory_order_relaxed);
}

}  // namespace wimi::testutil

void* operator new(std::size_t size) {
    void* p = wimi::testutil::counted_alloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return wimi::testutil::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return wimi::testutil::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
