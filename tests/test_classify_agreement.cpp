// Three-path agreement: batch, serve and stream classify alike.
//
// One trained model answers "which liquid is this?" through four entry
// points: Wimi::identify, an InferenceEngine over a snapshot of the same
// model, an InferenceEngine loaded from a saved copy, and a hop-0
// full-window StreamingPipeline. For every liquid and several unseen
// captures, all four must return the same class id and name, and the
// stream's single window must carry features bit-identical to
// Wimi::features — the batch path's input to the same classify step.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_feature.hpp"
#include "core/wimi.hpp"
#include "rf/material.hpp"
#include "serve/inference.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"
#include "sim/scenario.hpp"
#include "stream/pipeline.hpp"

namespace wimi {
namespace {

constexpr int kEnrollPerLiquid = 6;
constexpr int kUnseenPerLiquid = 3;

/// Lab scenario, calibrated on one reference capture, every liquid of
/// rf::all_liquids() enrolled kEnrollPerLiquid times, SVM trained.
core::Wimi trained_wimi(const sim::Scenario& scenario) {
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(41));
    std::uint64_t seed = 1000;
    for (const rf::Liquid liquid : rf::all_liquids()) {
        for (int rep = 0; rep < kEnrollPerLiquid; ++rep) {
            const sim::MeasurementPair pair =
                scenario.capture_measurement(liquid, seed++);
            wimi.enroll(rf::liquid_name(liquid), pair.baseline, pair.target);
        }
    }
    wimi.train();
    return wimi;
}

bool bit_identical(const std::vector<double>& a,
                   const std::vector<double>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

TEST(ClassifyAgreement, BatchServeLoadedAndStreamAgreeOnEveryLiquid) {
    const sim::Scenario scenario{sim::ScenarioConfig{}};
    const core::Wimi wimi = trained_wimi(scenario);

    const serve::InferenceEngine snapshot(serve::snapshot_model(wimi));
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        "wimi_classify_agreement.wmdl";
    serve::save_model_file(path, serve::snapshot_model(wimi));
    const serve::InferenceEngine loaded = serve::InferenceEngine::load(path);
    std::filesystem::remove(path);

    std::uint64_t seed = 9000;
    std::size_t checked = 0;
    for (const rf::Liquid liquid : rf::all_liquids()) {
        for (int rep = 0; rep < kUnseenPerLiquid; ++rep) {
            const sim::MeasurementPair pair =
                scenario.capture_measurement(liquid, seed++);
            SCOPED_TRACE(std::string(rf::liquid_name(liquid)) + " rep " +
                         std::to_string(rep));

            const core::IdentificationResult batch =
                wimi.identify(pair.baseline, pair.target);
            const serve::Prediction served =
                snapshot.predict(pair.baseline, pair.target);
            const serve::Prediction reloaded =
                loaded.predict(pair.baseline, pair.target);

            stream::StreamConfig config;
            config.window = pair.target.packet_count();
            config.hop = 0;
            stream::StreamingPipeline pipeline(
                config, core::make_window_extractor(wimi, pair.baseline),
                wimi.model());
            std::optional<stream::WindowResult> window;
            for (const csi::CsiFrame& frame : pair.target.frames) {
                if (std::optional<stream::WindowResult> result =
                        pipeline.push(frame)) {
                    window = std::move(result);
                }
            }
            ASSERT_TRUE(window.has_value());

            EXPECT_GE(batch.material_id, 0);
            EXPECT_EQ(served.material_id, batch.material_id);
            EXPECT_EQ(served.material_name, batch.material_name);
            EXPECT_EQ(reloaded.material_id, batch.material_id);
            EXPECT_EQ(reloaded.material_name, batch.material_name);
            EXPECT_EQ(window->raw_label, batch.material_id);
            EXPECT_EQ(window->raw_name, batch.material_name);
            EXPECT_TRUE(bit_identical(
                window->features, wimi.features(pair.baseline, pair.target)));
            ++checked;
        }
    }
    EXPECT_EQ(checked, rf::all_liquids().size() * kUnseenPerLiquid);
}

}  // namespace
}  // namespace wimi
