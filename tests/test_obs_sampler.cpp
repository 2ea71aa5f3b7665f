// Tests for the tail sampler (obs/sampler).
//
// The retention policy has three promises: failures are always kept
// (and never pollute the latency estimate), everything is kept while
// the estimator warms up, and once warm the P² quantile estimate tracks
// the true quantile closely enough that roughly the configured tail
// fraction survives.
#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace wimi::obs {
namespace {

/// Deterministic latency stream: splitmix64 scaled into [0, 1000) us.
double lcg_latency(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    return static_cast<double>(z % 1000000ull) / 1000.0;
}

TEST(ObsSampler, FailuresAlwaysRetainedAndNeverFedToEstimator) {
    TailSampler sampler({.quantile = 0.95, .warmup = 0});
    for (int i = 0; i < 100; ++i) {
        // A shed request is answered in ~0 us; if these fed the
        // estimator the threshold would collapse to zero.
        EXPECT_TRUE(sampler.observe(0.0, true));
    }
    EXPECT_EQ(sampler.observed(), 100u);
    EXPECT_EQ(sampler.retained(), 100u);
    EXPECT_EQ(sampler.dropped(), 0u);
    EXPECT_TRUE(std::isnan(sampler.threshold()));
}

TEST(ObsSampler, WarmupRetainsEverything) {
    TailSampler sampler({.quantile = 0.95, .warmup = 32});
    std::uint64_t rng = 7;
    for (int i = 0; i < 32; ++i) {
        EXPECT_TRUE(sampler.observe(lcg_latency(rng), false));
    }
    EXPECT_EQ(sampler.retained(), 32u);
    EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(ObsSampler, ThresholdTracksTheConfiguredQuantile) {
    TailSampler sampler({.quantile = 0.95, .warmup = 0});
    std::uint64_t rng = 42;
    for (int i = 0; i < 20000; ++i) {
        sampler.observe(lcg_latency(rng), false);
    }
    // Uniform [0, 1000) -> true p95 = 950. P² should land close.
    const double threshold = sampler.threshold();
    ASSERT_FALSE(std::isnan(threshold));
    EXPECT_GT(threshold, 900.0);
    EXPECT_LT(threshold, 1000.0);
    // Roughly the tail fraction survives (warmup retained the first
    // handful, so allow slack above the ideal 5%).
    const double retained_fraction =
        static_cast<double>(sampler.retained()) /
        static_cast<double>(sampler.observed());
    EXPECT_LT(retained_fraction, 0.15);
    EXPECT_GT(retained_fraction, 0.02);
}

TEST(ObsSampler, WarmSamplerKeepsTailDropsBulk) {
    TailSampler sampler({.quantile = 0.9, .warmup = 0});
    std::uint64_t rng = 3;
    for (int i = 0; i < 5000; ++i) {
        sampler.observe(lcg_latency(rng), false);
    }
    const double threshold = sampler.threshold();
    ASSERT_FALSE(std::isnan(threshold));
    // Selective on all-successful traffic: some kept, some dropped.
    EXPECT_GT(sampler.retained(), 0u);
    EXPECT_GT(sampler.dropped(), 0u);
    // Far above the threshold: retained. Far below: dropped. A failure
    // below the threshold: still retained.
    EXPECT_TRUE(sampler.observe(threshold * 10.0, false));
    EXPECT_FALSE(sampler.observe(threshold / 100.0, false));
    EXPECT_TRUE(sampler.observe(threshold / 100.0, true));
}

TEST(ObsSampler, CountersAreConsistent) {
    TailSampler sampler({.quantile = 0.5, .warmup = 8});
    std::uint64_t rng = 11;
    for (int i = 0; i < 1000; ++i) {
        sampler.observe(lcg_latency(rng), (i % 17) == 0);
    }
    EXPECT_EQ(sampler.observed(), 1000u);
    EXPECT_EQ(sampler.retained() + sampler.dropped(), 1000u);
}

TEST(ObsSampler, QuantileIsClamped) {
    // Degenerate configs must not divide by zero or retain nothing.
    TailSampler low({.quantile = -1.0, .warmup = 0});
    TailSampler high({.quantile = 2.0, .warmup = 0});
    std::uint64_t rng = 99;
    for (int i = 0; i < 100; ++i) {
        const double latency = lcg_latency(rng);
        low.observe(latency, false);
        high.observe(latency, false);
    }
    EXPECT_FALSE(std::isnan(low.threshold()));
    EXPECT_FALSE(std::isnan(high.threshold()));
}

}  // namespace
}  // namespace wimi::obs
