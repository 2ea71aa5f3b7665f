// Tests for CSI amplitude denoising (paper Sec. III-C).
#include "core/amplitude_denoising.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/capture.hpp"
#include "dsp/stats.hpp"
#include "pipeline_test_util.hpp"

namespace wimi::core {
namespace {

using testutil::synthetic_series;

TEST(AmplitudeDenoise, RemovesOutliersAndImpulses) {
    Rng rng(1);
    std::vector<double> amps(128, 5.0);
    for (std::size_t i = 0; i < amps.size(); ++i) {
        amps[i] += rng.gaussian(0.0, 0.05);
    }
    amps[20] = 25.0;   // outlier
    amps[70] = -3.0;   // outlier (negative spike)
    AmplitudeDenoiseConfig config;
    const auto cleaned = denoise_amplitude_series(amps, config);
    ASSERT_EQ(cleaned.size(), amps.size());
    EXPECT_NEAR(cleaned[20], 5.0, 1.0);
    EXPECT_NEAR(cleaned[70], 5.0, 1.0);
    EXPECT_NEAR(dsp::mean(cleaned), 5.0, 0.1);
}

TEST(AmplitudeDenoise, OutputStrictlyPositive) {
    Rng rng(2);
    std::vector<double> amps(64, 1.0);
    for (double& a : amps) {
        a += rng.gaussian(0.0, 0.1);
    }
    amps[10] = 9.0;
    const auto cleaned = denoise_amplitude_series(amps, {});
    for (const double a : cleaned) {
        EXPECT_GT(a, 0.0);
    }
}

TEST(AmplitudeDenoise, FullyDisabledChainIsIdentity) {
    std::vector<double> amps(32, 2.0);
    amps[5] = 2.4;
    AmplitudeDenoiseConfig config;
    config.remove_impulses = false;
    config.outlier_k_sigma = 1e9;  // gate effectively off
    const auto cleaned = denoise_amplitude_series(amps, config);
    EXPECT_DOUBLE_EQ(cleaned[5], 2.4);  // untouched
}

TEST(AmplitudeDenoise, ShortSeriesSkipsWaveletStage) {
    const std::vector<double> amps = {1.0, 1.1, 0.9, 1.0};
    const auto cleaned = denoise_amplitude_series(amps, {});
    EXPECT_EQ(cleaned.size(), amps.size());
}

TEST(AmplitudeDenoise, EmptyRejected) {
    EXPECT_THROW(denoise_amplitude_series({}, {}), Error);
}

TEST(AmplitudeRatio, RecoversTrueRatio) {
    const auto series =
        synthetic_series({3.0, 1.5}, {0.2, 0.1}, 64, 0.02, 0.0, 5);
    const auto ratio = denoised_amplitude_ratio(series, {0, 1}, 0, {});
    ASSERT_EQ(ratio.size(), 64u);
    EXPECT_NEAR(dsp::mean(ratio), 2.0, 0.05);
}

TEST(InlierMask, FlagsSpikedPackets) {
    auto series = synthetic_series({1.0, 1.0}, {0.0, 0.0}, 50, 0.01, 0.0, 7);
    // Spike antenna 0 at packet 10 and antenna 1 at packet 30.
    series.frames[10].at(0, 3) = Complex(8.0, 0.0);
    series.frames[30].at(1, 3) = Complex(0.05, 0.0);
    const auto mask = inlier_packet_mask(csi::CsiSoa(series), {0, 1}, 3, 3.0);
    ASSERT_EQ(mask.size(), 50u);
    EXPECT_FALSE(mask[10]);
    EXPECT_FALSE(mask[30]);
    EXPECT_TRUE(mask[0]);
    EXPECT_TRUE(mask[49]);
}

TEST(VarianceReport, RatioMoreStableThanAntennas) {
    // On a simulated capture with common-mode gain fluctuation, the ratio
    // must have lower normalized variance than each antenna (Fig. 8).
    csi::CaptureConfig config;
    config.channel.deployment = rf::make_standard_deployment(2.0);
    config.channel.environment =
        rf::environment_spec(rf::Environment::kLab);
    config.seed = 11;
    csi::CaptureSimulator sim(config);
    const auto series = sim.capture(std::nullopt, 300);

    const auto report = amplitude_variance_report(series, {0, 1});
    ASSERT_EQ(report.ratio.size(), series.subcarrier_count());
    // A deep multipath fade can blow up individual subcarriers (division
    // by a near-zero amplitude), so compare per subcarrier and require a
    // clear majority — the paper's Fig. 8 shows the ratio below both
    // antennas across the band.
    std::size_t ratio_wins = 0;
    for (std::size_t k = 0; k < report.ratio.size(); ++k) {
        const double antenna_var =
            0.5 * (report.antenna_first[k] + report.antenna_second[k]);
        ratio_wins += (report.ratio[k] < antenna_var) ? 1 : 0;
    }
    EXPECT_GE(ratio_wins, 2 * report.ratio.size() / 3);
}

TEST(VarianceReport, EmptySeriesRejected) {
    EXPECT_THROW(amplitude_variance_report({}, {0, 1}), Error);
}

}  // namespace
}  // namespace wimi::core
