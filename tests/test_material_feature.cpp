// Tests for the size-independent material feature (paper Sec. III-D/E).
#include "core/material_feature.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "pipeline_test_util.hpp"

namespace wimi::core {
namespace {

using testutil::synthetic_series;

// Builds a synthetic baseline/target pair where each antenna's channel is
// multiplied by exp(-(alpha + j beta) * d[a]) when the target appears —
// the exact model of paper Eq. 14-17.
struct SyntheticTarget {
    csi::CsiSeries baseline;
    csi::CsiSeries target;
};

SyntheticTarget make_target(double alpha, double beta,
                            std::vector<double> depths,
                            std::size_t packets = 32) {
    std::vector<double> base_amps(depths.size(), 1.0);
    std::vector<double> base_phases(depths.size(), 0.3);
    SyntheticTarget out;
    out.baseline =
        synthetic_series(base_amps, base_phases, packets, 0.0, 0.0, 2);
    std::vector<double> amps;
    std::vector<double> phases;
    for (std::size_t a = 0; a < depths.size(); ++a) {
        amps.push_back(std::exp(-alpha * depths[a]));
        phases.push_back(0.3 - beta * depths[a]);
    }
    out.target = synthetic_series(amps, phases, packets, 0.0, 0.0, 3);
    return out;
}

/// Every pair's measurement at one subcarrier, through the production
/// baseline and target halves.
std::vector<MaterialMeasurement> measure_pairs(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target,
    std::vector<AntennaPair> pairs, std::size_t subcarrier) {
    return BaselineReference(csi::CsiSoa(baseline), std::move(pairs),
                             {subcarrier}, {})
        .measure(csi::CsiSoa(target));
}

MaterialMeasurement measure_pair(const csi::CsiSeries& baseline,
                                 const csi::CsiSeries& target,
                                 AntennaPair pair, std::size_t subcarrier) {
    return measure_pairs(baseline, target, {pair}, subcarrier).front();
}

// A material with Omega = alpha/beta in our negated-sign convention.
constexpr double kAlpha = 120.0;
constexpr double kBeta = 850.0;
constexpr double kExpectedOmega = kAlpha / kBeta;

TEST(EstimateGamma, ZeroForUnwrappedMeasurement) {
    // DeltaTheta = -1.0 rad, DeltaPsi consistent with |Omega| ~ 0.14.
    const double delta_psi = std::exp(-0.141);
    EXPECT_EQ(estimate_gamma(-1.0, delta_psi, {}), 0);
}

TEST(EstimateGamma, RecoversNegativeWrap) {
    // True phase -7.5 rad wraps to -7.5 + 2 pi = -1.217; amplitude implies
    // |Omega| = 1.05/7.5 = 0.14, which only gamma = -1 makes admissible.
    const double delta_psi = std::exp(-1.05);
    EXPECT_EQ(estimate_gamma(-7.5 + kTwoPi, delta_psi, {}), -1);
}

TEST(EstimateGamma, LosslessMaterialStaysZero) {
    EXPECT_EQ(estimate_gamma(-2.0, 1.0, {}), 0);
}

TEST(EstimateGamma, RespectsMaxWraps) {
    GammaConfig config;
    config.max_wraps = 0;
    const double delta_psi = std::exp(-1.05);
    EXPECT_EQ(estimate_gamma(-7.5 + kTwoPi, delta_psi, config), 0);
}

TEST(EstimateGamma, Validation) {
    EXPECT_THROW(estimate_gamma(0.0, -1.0, {}), Error);
    GammaConfig bad;
    bad.max_wraps = -1;
    EXPECT_THROW(estimate_gamma(0.0, 1.0, bad), Error);
}

TEST(MeasureMaterial, RecoversPhaseAndAmplitudeChanges) {
    const auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const auto m =
        measure_pair(t.baseline, t.target, {0, 1}, 4);
    const double depth_diff = 0.0021 - 0.0009;
    EXPECT_NEAR(m.delta_theta_rad, -kBeta * depth_diff, 1e-9);
    EXPECT_NEAR(m.delta_psi, std::exp(-kAlpha * depth_diff), 1e-9);
    EXPECT_EQ(m.gamma, 0);
    // |DeltaTheta| ~ 1.02 >> ridge 0.12: Omega ~ Eq. 21 within ~2%.
    EXPECT_NEAR(m.omega, kExpectedOmega, 0.02 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterial, FeatureIndependentOfTargetSize) {
    // Same material, different "beaker sizes" (depth pairs): Omega agrees.
    const auto small = make_target(kAlpha, kBeta, {0.0012, 0.0004});
    const auto large = make_target(kAlpha, kBeta, {0.0028, 0.0013});
    const auto m_small =
        measure_pair(small.baseline, small.target, {0, 1}, 0);
    const auto m_large =
        measure_pair(large.baseline, large.target, {0, 1}, 0);
    // Depth differences differ by ~2x, features by a few percent (ridge).
    EXPECT_NE(m_small.delta_theta_rad, m_large.delta_theta_rad);
    EXPECT_NEAR(m_small.omega, m_large.omega,
                0.05 * std::abs(m_large.omega));
}

TEST(MeasureMaterial, DistinguishesMaterials) {
    const std::vector<double> depths = {0.0022, 0.0010};
    const auto water = make_target(120.0, 850.0, depths);
    const auto honey = make_target(123.0, 230.0, depths);
    const auto m_water =
        measure_pair(water.baseline, water.target, {0, 1}, 0);
    const auto m_honey =
        measure_pair(honey.baseline, honey.target, {0, 1}, 0);
    EXPECT_GT(m_honey.omega, m_water.omega);  // larger feature
}

TEST(MeasureMaterial, ToleratesNoise) {
    std::vector<double> amps = {std::exp(-kAlpha * 0.0021),
                                std::exp(-kAlpha * 0.0009)};
    std::vector<double> phases = {0.3 - kBeta * 0.0021,
                                  0.3 - kBeta * 0.0009};
    SyntheticTarget t;
    t.baseline = synthetic_series({1.0, 1.0}, {0.3, 0.3}, 256, 0.02, 0.02,
                                  5);
    t.target = synthetic_series(amps, phases, 256, 0.02, 0.02, 6);
    const auto m = measure_pair(t.baseline, t.target, {0, 1}, 0);
    EXPECT_NEAR(m.omega, kExpectedOmega, 0.25 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterialPairs, CrossPairWrapRecovery) {
    // Three antennas: depths chosen so the wide pair's phase change is
    // -7.48 rad (wrapped) while the reference pair stays unwrapped.
    const std::vector<double> depths = {0.0098, 0.0078, 0.0010};
    const auto t = make_target(kAlpha, kBeta, depths);
    const std::vector<AntennaPair> pairs = {{0, 1}, {0, 2}};
    const auto ms =
        measure_pairs(t.baseline, t.target, pairs, 0);
    ASSERT_EQ(ms.size(), 2u);
    // Reference: depth diff 0.002 -> -1.7 rad, no wrap.
    EXPECT_EQ(ms[0].gamma, 0);
    EXPECT_NEAR(ms[0].omega, kExpectedOmega,
                0.02 * std::abs(kExpectedOmega));
    // Wide pair: depth diff 0.0088 -> -7.48 rad -> wrapped once.
    EXPECT_EQ(ms[1].gamma, -1);
    EXPECT_NEAR(ms[1].omega, kExpectedOmega,
                0.02 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterialPairs, LossFreeReferenceKeepsGammaZero) {
    // Near-lossless material: amplitude carries no wrap information, so
    // wide-pair gamma stays 0 (and the phases do not wrap either).
    const auto t = make_target(0.5, 60.0, {0.009, 0.007, 0.001});
    const std::vector<AntennaPair> pairs = {{0, 1}, {0, 2}};
    const auto ms =
        measure_pairs(t.baseline, t.target, pairs, 0);
    EXPECT_EQ(ms[1].gamma, 0);
}

TEST(ExtractFeatureVector, LayoutAndContent) {
    const auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const std::vector<AntennaPair> pairs = {{0, 1}};
    const std::vector<std::size_t> subcarriers = {0, 7, 13};
    const auto features = extract_feature_vector(t.baseline, t.target,
                                                 pairs, subcarriers, {});
    ASSERT_EQ(features.size(), 3u);
    for (const double f : features) {
        EXPECT_NEAR(f, kExpectedOmega, 0.02 * std::abs(kExpectedOmega));
    }
}

TEST(ExtractFeatureVector, Validation) {
    const auto t = make_target(kAlpha, kBeta, {0.002, 0.001});
    EXPECT_THROW(
        extract_feature_vector(t.baseline, t.target, {}, {0}, {}), Error);
    EXPECT_THROW(extract_feature_vector(t.baseline, t.target, {{0, 1}}, {},
                                        {}),
                 Error);
    const csi::CsiSeries empty;
    EXPECT_THROW(extract_feature_vector(empty, t.target, {{0, 1}}, {0}, {}),
                 Error);
}

// Property: the feature is invariant under a global amplitude scale
// (receiver gain) and a global phase rotation (CFO) applied to both
// captures.
class FeatureInvariance : public ::testing::TestWithParam<double> {};

TEST_P(FeatureInvariance, GainAndPhaseInvariant) {
    const double scale = GetParam();
    auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const auto reference =
        measure_pair(t.baseline, t.target, {0, 1}, 0);
    for (auto* series : {&t.baseline, &t.target}) {
        for (auto& frame : series->frames) {
            for (Complex& h : frame.raw()) {
                h *= scale * std::exp(Complex(0.0, 0.77));
            }
        }
    }
    const auto transformed =
        measure_pair(t.baseline, t.target, {0, 1}, 0);
    EXPECT_NEAR(transformed.omega, reference.omega, 1e-9);
    EXPECT_NEAR(transformed.delta_theta_rad, reference.delta_theta_rad,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, FeatureInvariance,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0));

}  // namespace
}  // namespace wimi::core
