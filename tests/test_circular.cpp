// Tests for circular statistics (dsp/circular).
#include "dsp/circular.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace wimi::dsp {
namespace {

TEST(Circular, MeanOfIdenticalAngles) {
    const std::vector<double> v(10, 1.3);
    EXPECT_NEAR(circular_mean(v), 1.3, 1e-12);
    EXPECT_NEAR(mean_resultant_length(v), 1.0, 1e-12);
}

TEST(Circular, MeanAcrossBranchCut) {
    // Angles straddling +-pi: the arithmetic mean would be ~0 (wrong);
    // the circular mean must stay near pi.
    const std::vector<double> v = {kPi - 0.1, -kPi + 0.1};
    EXPECT_NEAR(std::abs(wrap_to_pi(circular_mean(v) - kPi)), 0.0, 1e-9);
}

TEST(Circular, UniformAnglesHaveLowResultant) {
    std::vector<double> v;
    for (int i = 0; i < 360; ++i) {
        v.push_back(static_cast<double>(i) * kPi / 180.0);
    }
    EXPECT_NEAR(mean_resultant_length(v), 0.0, 1e-9);
}

TEST(Circular, StddevGrowsWithSpread) {
    Rng rng(3);
    std::vector<double> tight;
    std::vector<double> loose;
    for (int i = 0; i < 2000; ++i) {
        tight.push_back(rng.gaussian(0.7, 0.05));
        loose.push_back(rng.gaussian(0.7, 0.5));
    }
    EXPECT_LT(circular_stddev(tight), circular_stddev(loose));
    EXPECT_NEAR(circular_stddev(tight), 0.05, 0.01);
}

TEST(Circular, AngularSpreadCoversSamples) {
    Rng rng(5);
    std::vector<double> v;
    for (int i = 0; i < 5000; ++i) {
        v.push_back(rng.uniform(-0.2, 0.2));  // total width 0.4 rad = 22.9 deg
    }
    const double spread = angular_spread_deg(v, 1.0);
    EXPECT_NEAR(spread, rad_to_deg(0.4), 2.0);
    // 95% coverage is narrower than full coverage.
    EXPECT_LT(angular_spread_deg(v, 0.95), spread);
}

TEST(Circular, SpreadInvariantToRotation) {
    Rng rng(7);
    std::vector<double> v;
    for (int i = 0; i < 500; ++i) {
        v.push_back(rng.gaussian(0.0, 0.3));
    }
    const double base = angular_spread_deg(v);
    for (const double rotation : {1.0, 2.5, -3.0}) {
        std::vector<double> rotated;
        for (const double a : v) {
            rotated.push_back(wrap_to_pi(a + rotation));
        }
        EXPECT_NEAR(angular_spread_deg(rotated), base, 1e-6);
    }
}

TEST(Circular, EmptyInputsThrow) {
    const std::vector<double> empty;
    EXPECT_THROW(circular_mean(empty), Error);
    EXPECT_THROW(mean_resultant_length(empty), Error);
    EXPECT_THROW(angular_spread_deg(empty), Error);
}

TEST(Circular, SpreadCoverageValidated) {
    const std::vector<double> v = {0.1, 0.2};
    EXPECT_THROW(angular_spread_deg(v, 0.0), Error);
    EXPECT_THROW(angular_spread_deg(v, 1.5), Error);
}

}  // namespace
}  // namespace wimi::dsp
