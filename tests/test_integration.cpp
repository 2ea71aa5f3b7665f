// Cross-module integration and property tests: the full simulated pipeline
// from channel physics to classification, plus the paper's headline
// invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/rng.hpp"
#include "core/material_feature.hpp"
#include "core/wimi.hpp"
#include "csi/trace_io.hpp"
#include "rf/propagation.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"

namespace wimi {
namespace {

sim::ScenarioConfig lab_config() {
    sim::ScenarioConfig config;
    config.environment = rf::Environment::kLab;
    config.packets = 20;
    return config;
}

// The measured feature tracks the theoretical feature ladder: liquids with
// larger theoretical Omega measure larger |omega| on average.
TEST(Integration, MeasuredFeatureTracksTheoreticalOrdering) {
    const sim::Scenario scenario(lab_config());
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(77));
    Rng rng(3);

    const auto mean_feature = [&](rf::Liquid liquid) {
        double sum = 0.0;
        int count = 0;
        for (int rep = 0; rep < 6; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            for (const double f : wimi.features(m.baseline, m.target)) {
                sum += f;
                ++count;
            }
        }
        return sum / count;
    };

    const double water = mean_feature(rf::Liquid::kPureWater);
    const double milk = mean_feature(rf::Liquid::kMilk);
    const double honey = mean_feature(rf::Liquid::kHoney);
    // Lossier materials have larger features.
    EXPECT_GT(milk, water);
    EXPECT_GT(honey, milk);
}

// Size independence (paper Sec. III-E / Fig. 19): the same liquid in
// different beakers yields approximately the same feature, while the raw
// phase change differs markedly.
class SizeIndependence : public ::testing::TestWithParam<rf::Liquid> {};

TEST_P(SizeIndependence, FeatureStableAcrossBeakerSizes) {
    const rf::Liquid liquid = GetParam();
    auto config_big = lab_config();
    config_big.beaker_diameter_m = 0.143;
    auto config_small = lab_config();
    config_small.beaker_diameter_m = 0.110;

    const sim::Scenario big(config_big);
    const sim::Scenario small(config_small);
    core::Wimi wimi;
    wimi.calibrate(big.capture_reference(88));

    Rng rng(9);
    const auto mean_ref_measure = [&](const sim::Scenario& scenario) {
        double omega = 0.0;
        double theta = 0.0;
        const int reps = 6;
        for (int rep = 0; rep < reps; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            const auto meas =
                core::BaselineReference(csi::CsiSoa(m.baseline), {{0, 1}},
                                        {wimi.subcarriers()[0]}, {})
                    .measure(csi::CsiSoa(m.target))
                    .front();
            omega += meas.omega;
            // Unwrapped phase change (the small beaker's edge-grazing
            // chords push the reference pair past -pi).
            theta += meas.delta_theta_rad +
                     kTwoPi * static_cast<double>(meas.gamma);
        }
        return std::pair<double, double>{omega / reps, theta / reps};
    };

    const auto [omega_big, theta_big] = mean_ref_measure(big);
    const auto [omega_small, theta_small] = mean_ref_measure(small);
    // The raw phase change depends on the beaker size (the smaller
    // beaker's edge-grazing chords give a *larger* D1 - D2 here)...
    EXPECT_GT(std::abs(theta_small), 1.2 * std::abs(theta_big));
    // ...but the material feature does not (within noise).
    EXPECT_NEAR(omega_big, omega_small,
                0.35 * std::abs(omega_big) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Liquids, SizeIndependence,
                         ::testing::Values(rf::Liquid::kPureWater,
                                           rf::Liquid::kMilk,
                                           rf::Liquid::kSoy,
                                           rf::Liquid::kVinegar));

// Store-and-replay: captures written to a trace file and read back give
// bit-identical features.
TEST(Integration, TraceRoundTripPreservesFeatures) {
    const sim::Scenario scenario(lab_config());
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(99));
    const auto m = scenario.capture_measurement(rf::Liquid::kPepsi, 123);

    const auto dir = std::filesystem::temp_directory_path();
    const auto base_path = dir / "wimi_integration_base.wcsi";
    const auto target_path = dir / "wimi_integration_target.wcsi";
    csi::write_trace_file(base_path, m.baseline);
    csi::write_trace_file(target_path, m.target);
    const auto baseline = csi::read_trace_file(base_path);
    const auto target = csi::read_trace_file(target_path);
    std::filesystem::remove(base_path);
    std::filesystem::remove(target_path);

    const auto live = wimi.features(m.baseline, m.target);
    const auto replayed = wimi.features(baseline, target);
    ASSERT_EQ(live.size(), replayed.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_DOUBLE_EQ(live[i], replayed[i]);
    }
}

// The metal-container caveat (paper Sec. V-B): with a metal beaker the
// through-signal is blocked and identification collapses.
TEST(Integration, MetalContainerBreaksIdentification) {
    auto metal_config = lab_config();
    metal_config.container = rf::ContainerMaterial::kMetal;
    sim::ExperimentConfig experiment;
    experiment.scenario = metal_config;
    experiment.liquids = {rf::Liquid::kPureWater, rf::Liquid::kHoney,
                          rf::Liquid::kOil};
    experiment.repetitions = 6;
    experiment.cv_folds = 3;
    const auto result = sim::run_identification_experiment(experiment);
    // Three distinctive liquids would be ~100% through plastic; metal
    // must destroy most of that signal.
    EXPECT_LT(result.accuracy, 0.7);
}

// Saltwater concentrations are separable (Fig. 16's backbone).
TEST(Integration, SaltwaterConcentrationsSeparable) {
    sim::ExperimentConfig experiment;
    experiment.scenario = lab_config();
    experiment.liquids.assign(rf::saltwater_series().begin(),
                              rf::saltwater_series().end());
    experiment.repetitions = 15;
    experiment.cv_folds = 5;
    experiment.seed = 21;
    const auto result = sim::run_identification_experiment(experiment);
    EXPECT_GE(result.accuracy, 0.8);
}

}  // namespace
}  // namespace wimi
