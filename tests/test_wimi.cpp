// Tests for the Wimi system facade.
#include "core/wimi.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"

namespace wimi::core {
namespace {

sim::Scenario lab_scenario() {
    sim::ScenarioConfig config;
    config.environment = rf::Environment::kLab;
    config.packets = 20;
    return sim::Scenario(config);
}

TEST(Wimi, LifecycleGuards) {
    Wimi wimi;
    EXPECT_FALSE(wimi.calibrated());
    EXPECT_FALSE(wimi.trained());
    const auto scenario = lab_scenario();
    const auto pair = scenario.capture_measurement(
        rf::Liquid::kMilk, 1);
    // features() before calibrate() is an error.
    EXPECT_THROW(wimi.features(pair.baseline, pair.target), Error);
    EXPECT_THROW(wimi.identify(pair.baseline, pair.target), Error);
}

TEST(Wimi, CalibrationSelectsSubcarriersAndPairs) {
    const auto scenario = lab_scenario();
    WimiConfig config;
    config.good_subcarrier_count = 5;
    Wimi wimi(config);
    wimi.calibrate(scenario.capture_reference(101));
    ASSERT_TRUE(wimi.calibrated());
    EXPECT_EQ(wimi.subcarriers().size(), 5u);
    for (const std::size_t sc : wimi.subcarriers()) {
        EXPECT_LT(sc, 30u);
    }
    EXPECT_EQ(wimi.pairs().size(), 3u);
}

TEST(Wimi, ExplicitSubcarriersRespected) {
    WimiConfig config;
    config.subcarriers = {22, 23};
    Wimi wimi(config);
    const auto scenario = lab_scenario();
    wimi.calibrate(scenario.capture_reference(102));
    EXPECT_EQ(wimi.subcarriers(), (std::vector<std::size_t>{22, 23}));
}

TEST(Wimi, AutoSelectPairReplacesConfig) {
    WimiConfig config;
    config.auto_select_pair = true;
    Wimi wimi(config);
    const auto scenario = lab_scenario();
    wimi.calibrate(scenario.capture_reference(103));
    EXPECT_EQ(wimi.pairs().size(), 1u);
}

TEST(Wimi, FeatureVectorWidth) {
    WimiConfig config;
    config.good_subcarrier_count = 4;
    Wimi wimi(config);
    const auto scenario = lab_scenario();
    wimi.calibrate(scenario.capture_reference(104));
    const auto m = scenario.capture_measurement(rf::Liquid::kPepsi, 11);
    const auto features = wimi.features(m.baseline, m.target);
    EXPECT_EQ(features.size(), 4u * 3u);  // subcarriers x pairs
}

TEST(Wimi, EndToEndIdentification) {
    const auto scenario = lab_scenario();
    Wimi wimi;
    wimi.calibrate(scenario.capture_reference(105));

    const std::vector<rf::Liquid> liquids = {
        rf::Liquid::kPureWater, rf::Liquid::kHoney, rf::Liquid::kOil};
    Rng rng(5);
    for (const rf::Liquid liquid : liquids) {
        for (int rep = 0; rep < 6; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            wimi.enroll(rf::liquid_name(liquid), m.baseline, m.target);
        }
    }
    EXPECT_EQ(wimi.database().material_count(), 3u);
    EXPECT_EQ(wimi.database().sample_count(), 18u);
    wimi.train();
    ASSERT_TRUE(wimi.trained());

    // These three liquids are dielectric extremes: identification of
    // unseen captures must be perfect.
    for (const rf::Liquid liquid : liquids) {
        for (int rep = 0; rep < 3; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            const auto result = wimi.identify(m.baseline, m.target);
            EXPECT_EQ(result.material_name, rf::liquid_name(liquid));
        }
    }
}

TEST(Wimi, EnrollFeaturesDirectly) {
    Wimi wimi;
    wimi.enroll_features("A", std::vector<double>{0.0, 0.0});
    wimi.enroll_features("A", std::vector<double>{0.1, 0.1});
    wimi.enroll_features("B", std::vector<double>{1.0, 1.0});
    wimi.enroll_features("B", std::vector<double>{0.9, 1.1});
    wimi.train();
    const auto result =
        wimi.model().classify(std::vector<double>{0.95, 1.0});
    EXPECT_EQ(result.material_name, "B");
}

TEST(Wimi, TrainRequiresTwoMaterials) {
    Wimi wimi;
    wimi.enroll_features("Only", std::vector<double>{1.0});
    EXPECT_THROW(wimi.train(), Error);
}

TEST(Wimi, EnrollInvalidatesTraining) {
    Wimi wimi;
    wimi.enroll_features("A", std::vector<double>{0.0});
    wimi.enroll_features("B", std::vector<double>{1.0});
    wimi.train();
    EXPECT_TRUE(wimi.trained());
    wimi.enroll_features("C", std::vector<double>{2.0});
    EXPECT_FALSE(wimi.trained());
}

TEST(Wimi, ModelReferenceSurvivesRetraining) {
    Wimi wimi;
    EXPECT_THROW(wimi.model(), Error);
    wimi.enroll_features("A", std::vector<double>{0.0});
    wimi.enroll_features("B", std::vector<double>{1.0});
    wimi.train();
    const Model& model = wimi.model();
    wimi.enroll_features("C", std::vector<double>{2.0});
    EXPECT_THROW(wimi.model(), Error);
    wimi.train();
    // A pipeline holding `model` sees the retrained state.
    EXPECT_EQ(&wimi.model(), &model);
    EXPECT_EQ(model.classify(std::vector<double>{2.1}).material_name, "C");
}

TEST(Wimi, ConfigValidation) {
    WimiConfig config;
    config.pairs.clear();
    config.auto_select_pair = false;
    EXPECT_THROW(Wimi{config}, Error);
    WimiConfig zero_sc;
    zero_sc.good_subcarrier_count = 0;
    EXPECT_THROW(Wimi{zero_sc}, Error);
}

}  // namespace
}  // namespace wimi::core
