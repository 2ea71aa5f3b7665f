// Tests for the power-delay-profile diagnostics.
#include "csi/pdp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "csi/capture.hpp"
#include "csi/subcarrier.hpp"
#include "rf/geometry.hpp"

namespace wimi::csi {
namespace {

/// A frame whose spectrum is a pure complex exponential across the
/// *logical* subcarrier offsets: a single path at delay `bin` (in units
/// of 1/(fft_size * spacing)).
CsiFrame single_path_frame(std::size_t bin, std::size_t fft_size) {
    CsiFrame frame(1, kSubcarrierCount);
    const auto& offsets = intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < kSubcarrierCount; ++k) {
        const double phase = -kTwoPi * static_cast<double>(bin) *
                             static_cast<double>(offsets[k]) /
                             static_cast<double>(fft_size);
        frame.at(0, k) = std::polar(1.0, phase);
    }
    return frame;
}

/// The profile of one frame: the average over a one-frame series.
PowerDelayProfile frame_profile(const CsiFrame& frame, std::size_t antenna,
                                std::size_t fft_size) {
    CsiSeries series;
    series.frames.push_back(frame);
    return average_power_delay_profile(series, antenna, fft_size);
}

TEST(Pdp, SinglePathPeaksAtItsDelay) {
    const std::size_t fft_size = 128;
    const auto frame = single_path_frame(10, fft_size);
    const auto profile = frame_profile(frame, 0, fft_size);
    ASSERT_EQ(profile.power.size(), fft_size);
    const auto peak =
        std::max_element(profile.power.begin(), profile.power.end());
    EXPECT_EQ(static_cast<std::size_t>(peak - profile.power.begin()), 10u);
    EXPECT_DOUBLE_EQ(*peak, 1.0);  // normalized
}

TEST(Pdp, BinSpacingMatchesBandwidth) {
    const auto frame = single_path_frame(0, 128);
    const auto profile = frame_profile(frame, 0, 128);
    EXPECT_NEAR(profile.bin_spacing_s, 1.0 / (128.0 * kSubcarrierSpacingHz),
                1e-15);
}

TEST(Pdp, TwoPathsGiveTwoPeaks) {
    CsiFrame frame(1, kSubcarrierCount);
    const std::size_t fft_size = 128;
    const auto& offsets = intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < kSubcarrierCount; ++k) {
        const double o = static_cast<double>(offsets[k]);
        const double phase1 = -kTwoPi * 4.0 * o / 128.0;
        const double phase2 = -kTwoPi * 20.0 * o / 128.0;
        frame.at(0, k) =
            std::polar(1.0, phase1) + std::polar(0.5, phase2);
    }
    const auto profile = frame_profile(frame, 0, fft_size);
    EXPECT_GT(profile.power[4], 0.9);
    EXPECT_GT(profile.power[20], 0.1);
    EXPECT_LT(profile.power[12], profile.power[20]);
}

TEST(Pdp, RmsDelaySpreadSmallForSinglePath) {
    const auto frame = single_path_frame(6, 128);
    const auto single = frame_profile(frame, 0, 128);
    // A single discrete path: the residual spread is window leakage (the
    // 30-subcarrier rectangular window's sidelobes plus the grouped-grid
    // comb), bounded well below the 50 ns resolution cell...
    EXPECT_LT(rms_delay_spread(single), 12.0 * single.bin_spacing_s);
    // ...and clearly smaller than a genuinely two-path channel spread by
    // 40 bins.
    CsiFrame two_path(1, kSubcarrierCount);
    const auto& offsets = intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < kSubcarrierCount; ++k) {
        const double o = static_cast<double>(offsets[k]);
        two_path.at(0, k) = std::polar(1.0, -kTwoPi * 6.0 * o / 128.0) +
                            std::polar(0.9, -kTwoPi * 46.0 * o / 128.0);
    }
    const auto dual = frame_profile(two_path, 0, 128);
    EXPECT_GT(rms_delay_spread(dual), 1.5 * rms_delay_spread(single));
}

TEST(Pdp, FarEchoEnergyVisibleInProfile) {
    // 20 MHz of bandwidth gives ~50 ns delay resolution, so fine spread
    // differences hide under window sidelobes — but a channel with strong
    // long-delay reflections must still put clearly more energy into the
    // far-delay region of the profile than a near-LoS channel.
    const auto far_energy = [](double delay_spread_s, double k_db) {
        CaptureConfig config;
        config.channel.deployment = rf::make_standard_deployment(2.0);
        config.channel.environment = {"Custom", 10, k_db, delay_spread_s,
                                      0.2, -45.0};
        config.seed = 5;
        config.impairments.impulse_probability = 0.0;
        config.impairments.outlier_probability = 0.0;
        CaptureSimulator sim(config);
        const auto series = sim.capture(std::nullopt, 200);
        const auto profile =
            average_power_delay_profile(series, 0, 256);
        // Bins covering ~125-625 ns (12.5 ns spacing) — after the LoS
        // leakage skirt and before the grouped-grid alias image that the
        // Intel layout's missing odd subcarriers put at ~800 ns.
        double energy = 0.0;
        for (std::size_t i = 10; i < 50; ++i) {
            energy += profile.power[i];
        }
        return energy;
    };
    EXPECT_GT(far_energy(200e-9, 3.0), 3.0 * far_energy(15e-9, 25.0));
}

TEST(Pdp, Validation) {
    const auto frame = single_path_frame(0, 128);
    EXPECT_THROW(frame_profile(frame, 5, 128), Error);
    EXPECT_THROW(frame_profile(frame, 0, 100), Error);  // not pow2
    EXPECT_THROW(frame_profile(frame, 0, 32), Error);   // too small
    CsiSeries empty;
    EXPECT_THROW(average_power_delay_profile(empty, 0, 128), Error);
    PowerDelayProfile p;
    EXPECT_THROW(rms_delay_spread(p), Error);
}

}  // namespace
}  // namespace wimi::csi
