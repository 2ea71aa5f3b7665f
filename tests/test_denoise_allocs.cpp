// Allocation gate for the wavelet-correlation denoiser (paper Sec. III-C):
// a call without a report allocates its plane buffer and the returned
// series, and nothing else. This executable replaces operator new with a
// counting one (as perfbench/alloc_count.cpp does), so the bound is an
// exact count that holds on any machine.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "dsp/wavelet_denoise.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

std::size_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
    void* p = counted_alloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace wimi::dsp {
namespace {

/// A CSI-like amplitude series with impulses, so every scale iterates.
std::vector<double> impulse_series(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = 10.0 + std::sin(static_cast<double>(i) / 3.0) +
               rng.gaussian(0.0, 0.05);
        if (rng.bernoulli(0.15)) {
            v[i] += rng.bernoulli(0.5) ? 6.0 : -6.0;
        }
    }
    return v;
}

TEST(DenoiseAllocations, CounterSeesEveryNew) {
    const std::size_t before = allocations();
    const auto v = std::make_unique<std::vector<double>>(8);
    EXPECT_EQ(allocations() - before, 2u);
}

TEST(DenoiseAllocations, AtMostTwoBlocksPerCall) {
    for (const std::size_t n : {20u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            const auto input = impulse_series(n, seed);
            const std::size_t before = allocations();
            const auto out = wavelet_correlation_denoise(input);
            const std::size_t used = allocations() - before;
            ASSERT_EQ(out.size(), n);
            EXPECT_LE(used, 2u) << "n=" << n << " seed=" << seed;
        }
    }
}

}  // namespace
}  // namespace wimi::dsp
