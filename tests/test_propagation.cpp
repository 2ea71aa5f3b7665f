// Tests for lossy-medium propagation constants and the theoretical
// material feature (paper Eq. 2-4, 21).
#include "rf/propagation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "csi/subcarrier.hpp"

namespace wimi::rf {
namespace {

constexpr double kF = csi::kDefaultCenterFrequencyHz;

TEST(Propagation, FreeSpace) {
    const auto pc = propagation_constants(air(), kF);
    EXPECT_NEAR(pc.alpha_np_per_m, 0.0, 1e-9);
    EXPECT_NEAR(pc.beta_rad_per_m, kTwoPi * kF / kSpeedOfLight, 1e-6);
    EXPECT_NEAR(free_space_wavelength(kF), 0.05635, 1e-4);
    EXPECT_NEAR(kTwoPi / pc.beta_rad_per_m, free_space_wavelength(kF), 1e-9);
}

TEST(Propagation, LosslessMediumBetaScalesWithRootEps) {
    // eps_r = 4 (lossless): beta doubles, alpha stays zero.
    const auto pc = propagation_constants(Complex(4.0, 0.0), kF);
    EXPECT_NEAR(pc.alpha_np_per_m, 0.0, 1e-9);
    EXPECT_NEAR(pc.beta_rad_per_m, 2.0 * kTwoPi * kF / kSpeedOfLight, 1e-6);
}

TEST(Propagation, WaterConstantsInRange) {
    const auto pc = propagation_constants(material_for(Liquid::kPureWater),
                                          kF);
    // Water at ~5.3 GHz: alpha ~ 100-150 Np/m, beta ~ 900-1000 rad/m.
    EXPECT_GT(pc.alpha_np_per_m, 90.0);
    EXPECT_LT(pc.alpha_np_per_m, 160.0);
    EXPECT_GT(pc.beta_rad_per_m, 880.0);
    EXPECT_LT(pc.beta_rad_per_m, 1010.0);
}

TEST(Propagation, WavelengthShrinksInDielectric) {
    const auto water =
        propagation_constants(material_for(Liquid::kPureWater), kF);
    EXPECT_LT(kTwoPi / water.beta_rad_per_m, free_space_wavelength(kF) / 7.0);
}

TEST(Propagation, ClosedFormCrossCheck) {
    // Compare the complex-sqrt path against the textbook alpha formula
    // alpha = k0 sqrt(eps'/2 (sqrt(1+tan^2) - 1)).
    const Complex eps(60.0, -20.0);
    const auto pc = propagation_constants(eps, kF);
    const double k0 = kTwoPi * kF / kSpeedOfLight;
    const double tan_delta = 20.0 / 60.0;
    const double alpha_ref =
        k0 * std::sqrt(60.0 / 2.0 *
                       (std::sqrt(1.0 + tan_delta * tan_delta) - 1.0));
    const double beta_ref =
        k0 * std::sqrt(60.0 / 2.0 *
                       (std::sqrt(1.0 + tan_delta * tan_delta) + 1.0));
    EXPECT_NEAR(pc.alpha_np_per_m, alpha_ref, 1e-6 * alpha_ref);
    EXPECT_NEAR(pc.beta_rad_per_m, beta_ref, 1e-6 * beta_ref);
}

TEST(Propagation, TheoreticalFeatureLadderIsDistinct) {
    std::map<double, Liquid> ladder;
    for (const Liquid liquid : all_liquids()) {
        const double omega =
            theoretical_material_feature(material_for(liquid), kF);
        EXPECT_GT(omega, 0.0) << liquid_name(liquid);
        ladder[omega] = liquid;
    }
    // All ten liquids occupy distinct rungs.
    EXPECT_EQ(ladder.size(), 10u);
    // Known ordering anchors: oil lowest, water low, honey highest.
    EXPECT_EQ(ladder.begin()->second, Liquid::kOil);
    EXPECT_EQ(ladder.rbegin()->second, Liquid::kHoney);
}

TEST(Propagation, FeatureIndependentOfConcentrationOrdering) {
    // Saltwater features grow with salinity (Fig. 16's physical basis).
    double previous = 0.0;
    for (const Liquid liquid : saltwater_series()) {
        const double omega =
            theoretical_material_feature(material_for(liquid), kF);
        EXPECT_GT(omega, previous) << liquid_name(liquid);
        previous = omega;
    }
}

TEST(Propagation, ExcessTransmissionMagnitudeAndPhase) {
    const auto& water = material_for(Liquid::kPureWater);
    const double d = 0.01;  // 1 cm
    const Complex t = excess_transmission(water, d, kF);
    const auto pc = propagation_constants(water, kF);
    const auto pc_air = propagation_constants(air(), kF);
    EXPECT_NEAR(std::abs(t),
                std::exp(-(pc.alpha_np_per_m - pc_air.alpha_np_per_m) * d),
                1e-9);
    EXPECT_NEAR(std::arg(t),
                wrap_to_pi(-(pc.beta_rad_per_m - pc_air.beta_rad_per_m) * d),
                1e-9);
}

TEST(Propagation, ExcessTransmissionZeroDistanceIsUnity) {
    const Complex t =
        excess_transmission(material_for(Liquid::kMilk), 0.0, kF);
    EXPECT_NEAR(std::abs(t), 1.0, 1e-12);
    EXPECT_NEAR(std::arg(t), 0.0, 1e-12);
}

TEST(Propagation, Validation) {
    EXPECT_THROW(propagation_constants(Complex(1.0, 0.0), 0.0), Error);
    EXPECT_THROW(propagation_constants(Complex(-1.0, 0.0), kF), Error);
    EXPECT_THROW(theoretical_material_feature(air(), kF), Error);
    EXPECT_THROW(excess_transmission(air(), -0.1, kF), Error);
}

// Property: the theoretical feature is frequency-stable across the 20 MHz
// Wi-Fi band (within a few percent), which is what lets WiMi combine
// subcarriers.
class FeatureStability : public ::testing::TestWithParam<Liquid> {};

TEST_P(FeatureStability, FlatAcrossBand) {
    const auto& material = material_for(GetParam());
    const double center = theoretical_material_feature(material, kF);
    for (const double offset : {-10e6, -5e6, 5e6, 10e6}) {
        const double shifted =
            theoretical_material_feature(material, kF + offset);
        EXPECT_NEAR(shifted, center, 0.03 * std::abs(center) + 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLiquids, FeatureStability,
    ::testing::Values(Liquid::kVinegar, Liquid::kHoney, Liquid::kSoy,
                      Liquid::kMilk, Liquid::kPepsi, Liquid::kLiquor,
                      Liquid::kPureWater, Liquid::kOil, Liquid::kCoke,
                      Liquid::kSweetWater));

}  // namespace
}  // namespace wimi::rf
