// Tests for descriptive statistics (dsp/stats).
#include "dsp/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace wimi::dsp {
namespace {

TEST(Stats, MeanAndVariance) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_DOUBLE_EQ(variance(v), 1.25);       // population
    EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptyInputsThrow) {
    const std::vector<double> empty;
    EXPECT_THROW(mean(empty), Error);
    EXPECT_THROW(variance(empty), Error);
    EXPECT_THROW(median(empty), Error);
}

TEST(Stats, MedianOddEven) {
    const std::vector<double> odd = {5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(median(odd), 3.0);
    const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
    const std::vector<double> single = {7.0};
    EXPECT_DOUBLE_EQ(median(single), 7.0);
}

TEST(Stats, MedianAbsoluteDeviation) {
    const std::vector<double> v = {1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0};
    // median = 2, deviations = {1,1,0,0,2,4,7}, MAD = 1.
    EXPECT_DOUBLE_EQ(median_absolute_deviation(v), 1.0);
    EXPECT_NEAR(robust_sigma(v), 1.0 / 0.6745, 1e-12);
}

TEST(Stats, RobustSigmaMatchesGaussianSigma) {
    Rng rng(5);
    std::vector<double> v;
    for (int i = 0; i < 50000; ++i) {
        v.push_back(rng.gaussian(10.0, 3.0));
    }
    EXPECT_NEAR(robust_sigma(v), 3.0, 0.1);
}

TEST(Stats, Rmse) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {1.0, 4.0};
    EXPECT_NEAR(rmse(a, b), std::sqrt(2.0), 1e-12);
    EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
}

TEST(Stats, SigmaOutlierIndices) {
    std::vector<double> v(100, 1.0);
    v[13] = 100.0;  // an obvious outlier
    const auto outliers = sigma_outlier_indices(v, 3.0);
    ASSERT_EQ(outliers.size(), 1u);
    EXPECT_EQ(outliers[0], 13u);
}

TEST(Stats, RejectSigmaOutliersReplacesWithInlierMean) {
    std::vector<double> v(50, 2.0);
    v[7] = 1000.0;
    const auto cleaned = reject_sigma_outliers(v, 3.0);
    ASSERT_EQ(cleaned.size(), v.size());
    EXPECT_NEAR(cleaned[7], 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(cleaned[0], 2.0);
}

TEST(Stats, RejectSigmaOutliersNoOpOnCleanData) {
    const std::vector<double> v = {1.0, 1.1, 0.9, 1.05, 0.95};
    const auto cleaned = reject_sigma_outliers(v, 3.0);
    EXPECT_EQ(cleaned, v);
}

TEST(RunningStats, MatchesBatchStatistics) {
    Rng rng(9);
    std::vector<double> v;
    RunningStats rs;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-5.0, 5.0);
        v.push_back(x);
        rs.add(x);
    }
    EXPECT_EQ(rs.count(), 1000u);
    EXPECT_NEAR(rs.mean(), mean(v), 1e-9);
    EXPECT_NEAR(rs.variance(), variance(v), 1e-9);
}

TEST(RunningStats, EmptyThrows) {
    RunningStats rs;
    EXPECT_THROW(rs.mean(), Error);
    EXPECT_THROW(rs.variance(), Error);
}

// Property sweep: variance is non-negative and median lies within range
// for arbitrary random inputs.
class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, InvariantsHold) {
    Rng rng(GetParam());
    std::vector<double> v;
    const std::size_t n = 1 + rng.uniform_index(200);
    for (std::size_t i = 0; i < n; ++i) {
        v.push_back(rng.uniform(-100.0, 100.0));
    }
    EXPECT_GE(variance(v), 0.0);
    const double med = median(v);
    EXPECT_GE(med, *std::min_element(v.begin(), v.end()));
    EXPECT_LE(med, *std::max_element(v.begin(), v.end()));
    EXPECT_GE(median_absolute_deviation(v), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, StatsProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Runs `call`, which must throw wimi::Error, and returns its message.
template <typename Call>
std::string error_message(Call&& call) {
    try {
        call();
    } catch (const Error& e) {
        return e.what();
    }
    ADD_FAILURE() << "no wimi::Error thrown";
    return {};
}

TEST(StatsEdgeCases, OrderStatisticsRejectNonFinite) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::string median_message =
        "median: input contains a non-finite value";
    const std::string gate_message =
        "sigma_outlier_indices: input contains a non-finite value";
    for (const double bad : {nan, inf, -inf}) {
        const std::vector<double> v = {1.0, bad, 3.0};
        std::vector<double> scratch(v.size());
        EXPECT_EQ(error_message([&] { median(v); }), median_message);
        EXPECT_EQ(error_message([&] { median_absolute_deviation(v); }),
                  median_message);
        EXPECT_EQ(error_message([&] { robust_sigma(v); }), median_message);
        EXPECT_EQ(error_message([&] { robust_sigma(v, scratch); }),
                  median_message);
        EXPECT_EQ(error_message([&] { sigma_outlier_indices(v, 3.0); }),
                  gate_message);
        EXPECT_EQ(error_message([&] { reject_sigma_outliers(v, 3.0); }),
                  gate_message);
    }
}

TEST(StatsEdgeCases, RobustSigmaInScratchMatchesAllocatingForm) {
    Rng rng(41);
    for (std::size_t n = 1; n <= 64; ++n) {
        std::vector<double> v(n);
        for (double& x : v) {
            // Ties and signed zeros included: selection must not care
            // where it runs.
            x = rng.bernoulli(0.2) ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
                                   : rng.gaussian(0.0, 3.0);
        }
        std::vector<double> scratch(n + 3, 7.0);  // longer is allowed
        const double expected = robust_sigma(v);
        const double got = robust_sigma(v, scratch);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expected))
            << "n=" << n;
    }
    const std::vector<double> v = {1.0, 2.0, 3.0};
    std::vector<double> short_scratch(2);
    EXPECT_EQ(error_message([&] { robust_sigma(v, short_scratch); }),
              "robust_sigma: scratch is shorter than the input");
    std::vector<double> none;
    EXPECT_EQ(error_message([&] { robust_sigma(none, none); }),
              "median: input must not be empty");
}

TEST(StatsEdgeCases, MomentsPropagateNonFinite) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> v = {1.0, nan, 3.0};
    EXPECT_TRUE(std::isnan(mean(v)));
    EXPECT_TRUE(std::isnan(variance(v)));
    EXPECT_TRUE(std::isnan(stddev(v)));
    EXPECT_TRUE(std::isnan(rmse(v, v)));
    RunningStats rs;
    rs.add(1.0);
    rs.add(nan);
    EXPECT_TRUE(std::isnan(rs.mean()));
    EXPECT_TRUE(std::isnan(rs.variance()));
}

TEST(StatsEdgeCases, SingleValueInputs) {
    const std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(mean(one), 42.0);
    EXPECT_DOUBLE_EQ(variance(one), 0.0);
    EXPECT_DOUBLE_EQ(median(one), 42.0);
    EXPECT_DOUBLE_EQ(median_absolute_deviation(one), 0.0);
    EXPECT_TRUE(sigma_outlier_indices(one, 3.0).empty());
}

TEST(StatsEdgeCases, ConstantInputs) {
    const std::vector<double> flat(16, -7.5);
    EXPECT_DOUBLE_EQ(mean(flat), -7.5);
    EXPECT_DOUBLE_EQ(variance(flat), 0.0);
    EXPECT_DOUBLE_EQ(median(flat), -7.5);
    EXPECT_DOUBLE_EQ(robust_sigma(flat), 0.0);
    // Zero sigma means the band collapses to the mean itself; every
    // sample equals the mean, so nothing is an outlier.
    EXPECT_TRUE(sigma_outlier_indices(flat, 3.0).empty());
    EXPECT_EQ(reject_sigma_outliers(flat, 3.0), flat);
}

TEST(StatsEdgeCases, EmptySigmaGateYieldsNoOutliers) {
    const std::vector<double> empty;
    EXPECT_TRUE(sigma_outlier_indices(empty, 3.0).empty());
    EXPECT_TRUE(reject_sigma_outliers(empty, 3.0).empty());
}

}  // namespace
}  // namespace wimi::dsp
