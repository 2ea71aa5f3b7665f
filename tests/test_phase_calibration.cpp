// Tests for CSI phase calibration (paper Sec. III-B, Eq. 5-6).
#include "core/phase_calibration.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "csi/capture.hpp"
#include "pipeline_test_util.hpp"

namespace wimi::core {
namespace {

using testutil::synthetic_series;

TEST(AntennaPairs, EnumeratesAllCombinations) {
    const auto pairs = all_antenna_pairs(3);
    ASSERT_EQ(pairs.size(), 3u);
    EXPECT_TRUE(pairs[0] == (AntennaPair{0, 1}));
    EXPECT_TRUE(pairs[1] == (AntennaPair{0, 2}));
    EXPECT_TRUE(pairs[2] == (AntennaPair{1, 2}));
    EXPECT_EQ(all_antenna_pairs(4).size(), 6u);
    EXPECT_THROW(all_antenna_pairs(1), Error);
}

TEST(PhaseCalibration, DifferenceSeriesRecoversOffset) {
    const auto series =
        synthetic_series({1.0, 1.0}, {0.9, 0.3}, 10);
    const auto diffs = phase_difference_series(series, {0, 1}, 5);
    ASSERT_EQ(diffs.size(), 10u);
    for (const double d : diffs) {
        EXPECT_NEAR(d, 0.6, 1e-12);
    }
    EXPECT_NEAR(phase_calibration_stats(series, {0, 1}, 5).diff_mean_rad, 0.6,
                1e-12);
}

TEST(PhaseCalibration, NoiseAveragedOut) {
    const auto series = synthetic_series({1.0, 1.0}, {1.2, -0.4}, 4000,
                                         0.0, 0.2, /*seed=*/7);
    EXPECT_NEAR(phase_calibration_stats(series, {0, 1}, 0).diff_mean_rad, 1.6,
                0.02);
}

TEST(PhaseCalibration, VarianceZeroForCleanSeries) {
    const auto series = synthetic_series({1.0, 1.0}, {0.5, 0.1}, 20);
    EXPECT_NEAR(phase_difference_variance(series, {0, 1}, 3), 0.0, 1e-12);
}

TEST(PhaseCalibration, VarianceTracksPhaseNoise) {
    const auto quiet = synthetic_series({1.0, 1.0}, {0.5, 0.1}, 500, 0.0,
                                        0.05, 11);
    const auto loud = synthetic_series({1.0, 1.0}, {0.5, 0.1}, 500, 0.0,
                                       0.3, 11);
    const double var_quiet = phase_difference_variance(quiet, {0, 1}, 0);
    const double var_loud = phase_difference_variance(loud, {0, 1}, 0);
    // Independent phase noise of std s on each antenna -> difference
    // variance ~ 2 s^2.
    EXPECT_NEAR(var_quiet, 2.0 * 0.05 * 0.05, 0.002);
    EXPECT_GT(var_loud, 10.0 * var_quiet);
}

TEST(PhaseCalibration, VarianceImmuneToBranchCut) {
    // Differences hover around +pi: naive variance would explode from
    // wrapping between +pi and -pi.
    const auto series = synthetic_series({1.0, 1.0}, {kPi - 0.02, -0.02},
                                         400, 0.0, 0.05, 13);
    const double var = phase_difference_variance(series, {0, 1}, 0);
    EXPECT_LT(var, 0.02);
}

TEST(PhaseCalibration, StatsOnSimulatedCaptureShowCalibrationGain) {
    // Real pipeline check on the simulator: raw phase spread must be huge
    // (CFO randomizes it) while the pair-difference spread is small
    // (Fig. 2 / Fig. 12 behaviour).
    csi::CaptureConfig config;
    config.channel.deployment = rf::make_standard_deployment(2.0);
    config.channel.environment =
        rf::environment_spec(rf::Environment::kLab);
    config.seed = 3;
    csi::CaptureSimulator sim(config);
    const auto series = sim.capture(std::nullopt, 100);

    const auto stats = phase_calibration_stats(series, {0, 1}, 14);
    EXPECT_GT(stats.raw_spread_deg, 180.0);
    EXPECT_LT(stats.diff_spread_deg, 90.0);
    EXPECT_GT(stats.diff_variance, 0.0);
}

TEST(PhaseCalibration, Validation) {
    const csi::CsiSeries empty;
    EXPECT_THROW(phase_difference_series(empty, {0, 1}, 0), Error);
    const auto series = synthetic_series({1.0, 1.0}, {0.1, 0.2}, 3);
    EXPECT_THROW(phase_difference_series(series, {1, 1}, 0), Error);
    EXPECT_THROW(phase_difference_series(series, {0, 5}, 0), Error);
    EXPECT_THROW(phase_difference_series(series, {0, 1}, 99), Error);
}

}  // namespace
}  // namespace wimi::core
