// Tests for the serving path: InferenceEngine over a persisted model.
//
// The properties that make "train once, infer many" trustworthy: a
// loaded engine predicts exactly like the training process did, batched
// prediction is bit-identical to serial at every thread width, and the
// process-wide cache hands every caller the same deserialized model.
#include "serve/inference.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "inference_workload.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"

namespace wimi::serve {
namespace {

/// A small real experiment: 4 liquids x 5 repetitions trains in well
/// under a second and still produces a non-trivial 6-machine ensemble.
sim::ExperimentConfig small_config(std::uint64_t seed) {
    sim::ExperimentConfig config;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kHoney, rf::Liquid::kOil};
    config.repetitions = 5;
    config.seed = seed;
    return config;
}

const core::Model& trained_model() {
    static const core::Model model =
        sim::train_experiment_model(small_config(7));
    return model;
}

TEST(Inference, SnapshotRequiresTrainedSvm) {
    core::Wimi untrained;
    EXPECT_THROW(snapshot_model(untrained), Error);
}

TEST(Inference, PredictsCapturedMeasurements) {
    const InferenceEngine engine(trained_model());
    const sim::ExperimentConfig eval = small_config(8);
    const sim::ModelPredictions result =
        sim::predict_experiment(engine, eval);
    ASSERT_EQ(result.truth.size(), 20u);
    ASSERT_EQ(result.predicted.size(), 20u);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < result.truth.size(); ++i) {
        correct += result.predicted[i] == result.truth[i] ? 1 : 0;
    }
    // Unseen captures of well-separated liquids: far above chance.
    EXPECT_GT(correct, 10u);
}

TEST(Inference, BatchIsBitIdenticalAcrossThreadWidths) {
    const InferenceEngine engine(trained_model());
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
        sim::ExperimentConfig serial = small_config(9);
        serial.threads = 1;
        sim::ExperimentConfig parallel = small_config(9);
        parallel.threads = threads;
        const sim::ModelPredictions a =
            sim::predict_experiment(engine, serial);
        const sim::ModelPredictions b =
            sim::predict_experiment(engine, parallel);
        EXPECT_EQ(a.predicted, b.predicted) << "threads=" << threads;
        EXPECT_EQ(a.truth, b.truth);
    }
}

// The seeded serving experiment, trained, persisted and reloaded: its 120
// unseen captures keep their accuracy (119 of 120 when pinned, 0.02 of
// slack), and every batch width answers as the serial loop does.
TEST(Inference, SeededExperimentKeepsItsAccuracyThroughTheFile) {
    const sim::ExperimentConfig config = testutil::serving_experiment();
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_inference_seeded.wmdl";
    save_model_file(path, sim::train_experiment_model(config));
    const InferenceEngine engine = InferenceEngine::load(path);
    std::filesystem::remove(path);
    ASSERT_EQ(engine.model().class_names.size(), 6u);

    const testutil::ServingWorkload w = testutil::serving_workload(config);
    ASSERT_EQ(w.captures.size(), 120u);
    std::vector<int> serial;
    double correct = 0.0;
    for (const sim::MeasurementPair& m : w.captures) {
        serial.push_back(engine.predict(m.baseline, m.target).material_id);
        correct += serial.back() == static_cast<int>(serial.size() - 1) / 20;
    }
    EXPECT_GE(correct / 120.0, 119.0 / 120.0 - 0.02) << correct << " correct";
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        std::vector<int> batched;
        for (const Prediction& p :
             engine.predict_batch(w.observations, {.threads = threads})) {
            batched.push_back(p.material_id);
        }
        EXPECT_EQ(batched, serial) << "threads=" << threads;
    }
}

TEST(Inference, LoadedEnginePredictsLikeTheOriginal) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_inference_roundtrip.wmdl";
    save_model_file(path, trained_model());
    const InferenceEngine original(trained_model());
    const InferenceEngine loaded = InferenceEngine::load(path);
    EXPECT_EQ(loaded.digest(), model_file_digest(path));

    const sim::ExperimentConfig eval = small_config(10);
    const sim::ModelPredictions a = sim::predict_experiment(original, eval);
    const sim::ModelPredictions b = sim::predict_experiment(loaded, eval);
    EXPECT_EQ(a.predicted, b.predicted);
    std::filesystem::remove(path);
}

TEST(Inference, CacheSharesOneEngine) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_inference_cache.wmdl";
    save_model_file(path, trained_model());
    InferenceEngine::clear_cache();
    const auto first = InferenceEngine::load_cached(path);
    const auto second = InferenceEngine::load_cached(path);
    EXPECT_EQ(first.get(), second.get());
    InferenceEngine::clear_cache();
    const auto third = InferenceEngine::load_cached(path);
    EXPECT_NE(first.get(), third.get());
    InferenceEngine::clear_cache();
    std::filesystem::remove(path);
}

/// A second artifact with different bytes than trained_model(): fewer
/// liquids trains fast and guarantees a different digest.
const core::Model& alternate_model() {
    static const core::Model model = [] {
        sim::ExperimentConfig config = small_config(15);
        config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                          rf::Liquid::kHoney};
        config.repetitions = 4;
        return sim::train_experiment_model(config);
    }();
    return model;
}

/// Regression: the cache used to key purely on path and never look at
/// the file again, so an artifact retrained in place kept serving the
/// stale first load — exactly the daemon hot-reload shape.
TEST(Inference, CacheReloadsRewrittenArtifact) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_inference_rewrite.wmdl";
    save_model_file(path, trained_model());
    InferenceEngine::clear_cache();
    const auto stale = InferenceEngine::load_cached(path);
    const std::string old_digest = stale->digest();

    save_model_file(path, alternate_model());
    // Force a distinct mtime so the size+mtime fast path cannot mask
    // the rewrite even on a coarse-timestamp filesystem.
    std::filesystem::last_write_time(
        path,
        std::filesystem::last_write_time(path) + std::chrono::seconds(1));
    const std::string new_digest = model_file_digest(path);
    ASSERT_NE(new_digest, old_digest);

    const auto fresh = InferenceEngine::load_cached(path);
    EXPECT_NE(fresh.get(), stale.get());
    EXPECT_EQ(fresh->digest(), new_digest);
    // The stale engine stays valid for anyone still holding it.
    EXPECT_EQ(stale->digest(), old_digest);
    InferenceEngine::clear_cache();
    std::filesystem::remove(path);
}

TEST(Inference, CacheSurvivesMtimeBumpWithSameBytes) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_inference_touch.wmdl";
    save_model_file(path, trained_model());
    InferenceEngine::clear_cache();
    const auto first = InferenceEngine::load_cached(path);
    // A bare touch moves mtime but not content: revalidation hashes the
    // file, sees the same bytes, and keeps the shared engine.
    std::filesystem::last_write_time(
        path,
        std::filesystem::last_write_time(path) + std::chrono::seconds(1));
    const auto second = InferenceEngine::load_cached(path);
    EXPECT_EQ(first.get(), second.get());
    InferenceEngine::clear_cache();
    std::filesystem::remove(path);
}

/// Regression: when canonicalization failed, the old fallback key was
/// the raw path string, so "model.wmdl" spelled via a dot-dot detour
/// landed in a different cache slot than its plain spelling — two
/// engines for one artifact.
TEST(Inference, CacheKeyNormalizesAliasedSpellings) {
    const auto dir = std::filesystem::temp_directory_path();
    const auto plain = dir / "wimi_inference_alias.wmdl";
    save_model_file(plain, trained_model());

    // Dot and dot-dot detours over existing directories.
    EXPECT_EQ(model_cache_key(plain), model_cache_key(dir / "." /
                                                      plain.filename()));
    EXPECT_EQ(model_cache_key(plain),
              model_cache_key(dir / "missing_dir" / ".." /
                              plain.filename()));

    // A detour through a *regular file* makes weakly_canonical throw
    // (ENOTDIR); the fallback must still normalize, not key on the raw
    // spelling.
    const auto blocker = dir / "wimi_inference_alias_blocker";
    { std::ofstream(blocker) << "not a directory"; }
    const auto detour = dir / blocker.filename() / ".." /
                        plain.filename();
    EXPECT_EQ(model_cache_key(plain), model_cache_key(detour));

    InferenceEngine::clear_cache();
    const auto direct = InferenceEngine::load_cached(plain);
    EXPECT_EQ(InferenceEngine::load_cached(detour).get(), direct.get());
    InferenceEngine::clear_cache();
    std::filesystem::remove(blocker);
    std::filesystem::remove(plain);
}

TEST(Inference, SinglePredictMatchesBatch) {
    const InferenceEngine engine(trained_model());
    const sim::ExperimentConfig config = small_config(11);
    const sim::Scenario scenario(config.scenario);
    std::vector<sim::MeasurementPair> captures;
    for (std::uint64_t s = 0; s < 4; ++s) {
        captures.push_back(scenario.capture_measurement(
            config.liquids[static_cast<std::size_t>(s)], 100 + s));
    }
    std::vector<Observation> batch;
    for (const sim::MeasurementPair& capture : captures) {
        batch.push_back({&capture.baseline, &capture.target});
    }
    const std::vector<Prediction> batched = engine.predict_batch(batch);
    ASSERT_EQ(batched.size(), captures.size());
    for (std::size_t i = 0; i < captures.size(); ++i) {
        const Prediction single =
            engine.predict(captures[i].baseline, captures[i].target);
        EXPECT_EQ(single.material_id, batched[i].material_id);
        EXPECT_EQ(single.material_name, batched[i].material_name);
    }
}

TEST(Inference, RejectsMalformedInputs) {
    const InferenceEngine engine(trained_model());
    // Null observation.
    const std::vector<Observation> bad(1);
    EXPECT_THROW(engine.predict_batch(bad), Error);
    // Wrong feature width.
    const std::vector<double> narrow(engine.model().feature_width() - 1,
                                     0.0);
    EXPECT_THROW(engine.predict_features(narrow), Error);
    // Class id outside the model.
    EXPECT_THROW(engine.model().class_name(-1), Error);
    EXPECT_THROW(engine.model().class_name(1000), Error);
}

TEST(Inference, MismatchedLiquidSetRejected) {
    const InferenceEngine engine(trained_model());
    sim::ExperimentConfig wrong = small_config(12);
    wrong.liquids = {rf::Liquid::kPureWater, rf::Liquid::kCoke};
    EXPECT_THROW(sim::predict_experiment(engine, wrong), Error);
    sim::ExperimentConfig reordered = small_config(12);
    reordered.liquids = {rf::Liquid::kMilk, rf::Liquid::kPureWater,
                         rf::Liquid::kHoney, rf::Liquid::kOil};
    EXPECT_THROW(sim::predict_experiment(engine, reordered), Error);
}

/// Save -> load -> predict must be bit-identical to the in-memory model
/// in every deployment environment, since the impairment state baked in
/// at training time differs between them.
class InferenceEnvironment
    : public ::testing::TestWithParam<rf::Environment> {};

TEST_P(InferenceEnvironment, RoundTripPredictsBitIdentically) {
    sim::ExperimentConfig config = small_config(13);
    config.scenario.environment = GetParam();
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kHoney};
    config.repetitions = 4;
    const core::Model model = sim::train_experiment_model(config);

    // One file per environment: ctest runs the instances in parallel.
    const auto path =
        std::filesystem::temp_directory_path() /
        ("wimi_inference_env_roundtrip_" +
         std::to_string(static_cast<int>(GetParam())) + ".wmdl");
    save_model_file(path, model);
    const InferenceEngine original(model);
    const InferenceEngine loaded = InferenceEngine::load(path);
    std::filesystem::remove(path);

    sim::ExperimentConfig eval = config;
    eval.seed = 14;
    const sim::ModelPredictions a = sim::predict_experiment(original, eval);
    const sim::ModelPredictions b = sim::predict_experiment(loaded, eval);
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.truth, b.truth);
    EXPECT_EQ(a.class_names, b.class_names);
}

INSTANTIATE_TEST_SUITE_P(AllEnvironments, InferenceEnvironment,
                         ::testing::Values(rf::Environment::kHall,
                                           rf::Environment::kLab,
                                           rf::Environment::kLibrary));

}  // namespace
}  // namespace wimi::serve
