// Allocation gate for the wavelet-correlation denoiser (paper Sec. III-C):
// a call without a report allocates its plane buffer and the returned
// series, and nothing else. This executable replaces operator new with a
// counting one (alloc_counter.hpp, as perfbench/alloc_count.cpp does), so
// the bound is an exact count that holds on any machine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "dsp/wavelet_denoise.hpp"

namespace wimi::dsp {
namespace {

using testutil::allocations;

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
