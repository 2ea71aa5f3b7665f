// Tests for the experiment harness.
#include "sim/harness.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "ml/drift.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"

namespace wimi::sim {
namespace {

ExperimentConfig small_experiment() {
    ExperimentConfig config;
    config.scenario.environment = rf::Environment::kLab;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kHoney,
                      rf::Liquid::kOil};
    config.repetitions = 6;
    config.cv_folds = 3;
    config.seed = 13;
    return config;
}

TEST(Harness, CalibratedWimiReady) {
    const auto wimi = make_calibrated_wimi(small_experiment());
    EXPECT_TRUE(wimi.calibrated());
    EXPECT_EQ(wimi.subcarriers().size(), 4u);
}

TEST(Harness, DatasetShape) {
    const auto config = small_experiment();
    const auto wimi = make_calibrated_wimi(config);
    const auto data = build_feature_dataset(config, wimi);
    EXPECT_EQ(data.size(), 3u * 6u);
    EXPECT_EQ(data.feature_count(),
              wimi.subcarriers().size() * wimi.pairs().size());
    EXPECT_EQ(data.distinct_labels().size(), 3u);
    for (int label = 0; label < 3; ++label) {
        EXPECT_EQ(data.rows_with_label(label).size(), 6u);
    }
}

TEST(Harness, DistinctiveLiquidsClassifyPerfectly) {
    const auto result = run_identification_experiment(small_experiment());
    EXPECT_EQ(result.class_names.size(), 3u);
    EXPECT_EQ(result.class_names[0], "Pure water");
    // Water / honey / oil are dielectric extremes.
    EXPECT_GE(result.accuracy, 0.95);
    EXPECT_GE(result.mean_recall, 0.95);
    EXPECT_EQ(result.confusion.total(), 18u);
}

TEST(Harness, DeterministicGivenSeed) {
    const auto a = run_identification_experiment(small_experiment());
    const auto b = run_identification_experiment(small_experiment());
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Harness, EvaluateDatasetConsistentWithConfusion) {
    const auto config = small_experiment();
    const auto wimi = make_calibrated_wimi(config);
    const auto data = build_feature_dataset(config, wimi);
    const auto result =
        evaluate_dataset(data, config, {"water", "honey", "oil"});
    EXPECT_DOUBLE_EQ(result.accuracy, result.confusion.accuracy());
    EXPECT_DOUBLE_EQ(result.mean_recall, result.confusion.mean_recall());
}

TEST(Harness, KnnBackendRuns) {
    auto config = small_experiment();
    config.classifier = ClassifierKind::kKnn;
    const auto result = run_identification_experiment(config);
    EXPECT_GE(result.accuracy, 0.9);
}

TEST(Harness, SerializeConfigIsStableAndCoversResultFields) {
    const std::string a = serialize_config(small_experiment());
    EXPECT_EQ(a, serialize_config(small_experiment()));

    // Result-affecting edits move the digest; the thread width does not.
    auto reseeded = small_experiment();
    reseeded.seed = 14;
    EXPECT_NE(obs::config_digest(a),
              obs::config_digest(serialize_config(reseeded)));
    auto repacked = small_experiment();
    repacked.scenario.packets = 30;
    EXPECT_NE(obs::config_digest(a),
              obs::config_digest(serialize_config(repacked)));
    auto rethreaded = small_experiment();
    rethreaded.threads = 4;
    EXPECT_EQ(obs::config_digest(a),
              obs::config_digest(serialize_config(rethreaded)));
}

TEST(Harness, ConfigDigestsArePinned) {
    // wimi.run.v1 ledgers compare runs by this digest, so moving a field
    // to another struct must not move it.
    ExperimentConfig knn;
    knn.classifier = ClassifierKind::kKnn;
    EXPECT_EQ(obs::config_digest(serialize_config(ExperimentConfig{})),
              "11a0d435");
    EXPECT_EQ(obs::config_digest(serialize_config(knn)), "643f12a8");
}

TEST(Harness, ExperimentAppendsRunManifestToLedger) {
    const std::string path = testing::TempDir() + "wimi_harness_ledger.jsonl";
    std::remove(path.c_str());

    auto config = small_experiment();
    config.run_ledger_path = path;
    run_identification_experiment(config);

    std::ifstream in(path, std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)) << "ledger line missing";
    const obs::json::Value doc = obs::json::parse(line);
    EXPECT_EQ(doc.find("schema")->string, "wimi.run.v1");
    EXPECT_EQ(doc.find("tool")->string, "sim.harness");
    EXPECT_DOUBLE_EQ(doc.find("seed")->num, 13.0);
    EXPECT_EQ(doc.find("config_digest")->string,
              obs::config_digest(serialize_config(config)));
    const obs::json::Value* notes = doc.find("notes");
    ASSERT_NE(notes, nullptr);
    EXPECT_EQ(notes->find("environment")->string, "Lab");
    EXPECT_GE(notes->find("accuracy")->num, 0.95);
    std::remove(path.c_str());
}

TEST(Harness, PsiReferencePublishesDriftGauges) {
#if defined(WIMI_OBS_DISABLED)
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)";
#endif
    const std::string path = testing::TempDir() + "wimi_harness_psi.json";
    const auto config = small_experiment();
    const auto wimi = make_calibrated_wimi(config);
    const auto data = build_feature_dataset(config, wimi);
    ml::save_psi_reference(path, ml::make_psi_reference(data));

    obs::set_enabled(true);
    obs::registry().reset();
    auto with_ref = config;
    with_ref.psi_reference_path = path;
    build_feature_dataset(with_ref, wimi);

    // Same config, same seed: the dataset is its own reference, so PSI
    // must read "no drift".
    double psi = -1.0;
    double psi_max = -1.0;
    for (const auto& [name, value] : obs::registry().snapshot().gauges) {
        if (name == "quality.feature.psi") {
            psi = value;
        }
        if (name == "quality.feature.psi_max") {
            psi_max = value;
        }
    }
    EXPECT_GE(psi, 0.0);
    EXPECT_LT(psi, 0.1);
    EXPECT_GE(psi_max, psi);
    obs::registry().reset();
    std::remove(path.c_str());
}

TEST(Harness, Validation) {
    auto config = small_experiment();
    config.liquids.clear();
    const auto wimi = make_calibrated_wimi(small_experiment());
    EXPECT_THROW(build_feature_dataset(config, wimi), Error);
    auto zero_reps = small_experiment();
    zero_reps.repetitions = 0;
    EXPECT_THROW(build_feature_dataset(zero_reps, wimi), Error);
}

}  // namespace
}  // namespace wimi::sim
