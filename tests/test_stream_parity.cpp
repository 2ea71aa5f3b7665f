// Differential batch↔stream parity suite (DESIGN.md §13 contract).
//
// The streaming pipeline must not be a second implementation of the
// science: with window == trace length and hop == 0 its one window holds
// exactly the frames the batch pipeline sees, so the feature vector must
// be BIT-identical (every double, compared by bit pattern) to
// Wimi::features and the label equal to Wimi::identify's. Sliding
// windows hold the same contract against batch extraction over the
// materialized subseries. A drift-gate case pins the other half of the
// decision contract: a stream whose features left the training
// distribution can never fabricate a material-change event.
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_feature.hpp"
#include "core/wimi.hpp"
#include "csi/frame.hpp"
#include "ml/dataset.hpp"
#include "ml/drift.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"
#include "stream/pipeline.hpp"

namespace wimi {
namespace {

const rf::Liquid kLiquids[] = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                               rf::Liquid::kOil};

sim::Scenario lab_scenario() { return sim::Scenario(sim::ScenarioConfig{}); }

/// Small trained system: calibrated on a reference capture, three
/// liquids x four repetitions enrolled, SVM trained. Deterministic.
core::Wimi trained_wimi(const sim::Scenario& scenario) {
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(101));
    std::uint64_t seed = 500;
    for (const rf::Liquid liquid : kLiquids) {
        for (int rep = 0; rep < 4; ++rep) {
            const sim::MeasurementPair pair =
                scenario.capture_measurement(liquid, seed++);
            wimi.enroll(rf::liquid_name(liquid), pair.baseline, pair.target);
        }
    }
    wimi.train();
    return wimi;
}

/// Bit-pattern equality: catches the FP-reordering drift EXPECT_EQ on
/// doubles would also catch, but with an unambiguous failure message
/// and no -0.0 == 0.0 escape hatch.
void expect_bit_identical(const std::vector<double>& actual,
                          const std::vector<double>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "feature " << i << ": stream " << actual[i] << " vs batch "
            << expected[i];
    }
}

/// Feeds every frame of `target`, returning all emitted windows.
std::vector<stream::WindowResult> feed(stream::StreamingPipeline& pipeline,
                                       const csi::CsiSeries& target) {
    std::vector<stream::WindowResult> windows;
    for (const csi::CsiFrame& frame : target.frames) {
        if (std::optional<stream::WindowResult> result =
                pipeline.push(frame)) {
            windows.push_back(std::move(*result));
        }
    }
    return windows;
}

TEST(StreamParity, FullWindowIsBitIdenticalToBatch) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);

    for (std::size_t i = 0; i < std::size(kLiquids); ++i) {
        const sim::MeasurementPair pair = scenario.capture_measurement(
            kLiquids[i], 900 + static_cast<std::uint64_t>(i));
        const std::vector<double> batch_features =
            wimi.features(pair.baseline, pair.target);
        const core::IdentificationResult batch =
            wimi.identify(pair.baseline, pair.target);

        stream::StreamConfig config;
        config.window = pair.target.packet_count();
        config.hop = 0;
        stream::StreamingPipeline pipeline(
            config, core::make_window_extractor(wimi, pair.baseline),
            wimi.model());

        const std::vector<stream::WindowResult> windows =
            feed(pipeline, pair.target);
        ASSERT_EQ(windows.size(), 1u)
            << "hop 0 must emit exactly one window";
        const stream::WindowResult& result = windows.front();

        EXPECT_EQ(result.window_index, 0u);
        EXPECT_EQ(result.first_frame, 0u);
        EXPECT_EQ(result.frame_count, pair.target.packet_count());
        expect_bit_identical(result.features, batch_features);
        EXPECT_EQ(result.raw_label, batch.material_id);
        EXPECT_EQ(result.raw_name, batch.material_name);
        // One window, no history: the smoothed verdict is the raw one.
        EXPECT_EQ(result.stable_label, batch.material_id);
        EXPECT_EQ(result.stable_name, batch.material_name);
        EXPECT_FALSE(result.changed);
    }
}

TEST(StreamParity, FullWindowEmitsNothingAfterTheSingleShot) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);
    const sim::MeasurementPair pair =
        scenario.capture_measurement(rf::Liquid::kMilk, 910);

    stream::StreamConfig config;
    config.window = pair.target.packet_count();
    config.hop = 0;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, pair.baseline),
        wimi.model());

    feed(pipeline, pair.target);
    // Keep pushing: hop 0 is single-shot, nothing more may come out.
    for (const csi::CsiFrame& frame : pair.target.frames) {
        EXPECT_FALSE(pipeline.push(frame).has_value());
    }
    EXPECT_EQ(pipeline.windows_emitted(), 1u);
    EXPECT_EQ(pipeline.frames_consumed(), 2 * pair.target.packet_count());
}

TEST(StreamParity, SlidingWindowsMatchBatchOnEachSubseries) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);
    const sim::MeasurementPair pair =
        scenario.capture_measurement(rf::Liquid::kPureWater, 920);
    const std::size_t total = pair.target.packet_count();
    ASSERT_EQ(total, 20u);  // the scenario's default packet budget

    constexpr std::size_t kWindow = 8;
    constexpr std::size_t kHop = 4;
    stream::StreamConfig config;
    config.window = kWindow;
    config.hop = kHop;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, pair.baseline),
        wimi.model());

    const std::vector<stream::WindowResult> windows =
        feed(pipeline, pair.target);
    ASSERT_EQ(windows.size(), (total - kWindow) / kHop + 1);

    for (const stream::WindowResult& result : windows) {
        EXPECT_EQ(result.first_frame, result.window_index * kHop);
        EXPECT_EQ(result.frame_count, kWindow);

        // Materialize the same span the planner promised and run the
        // batch pipeline over it: features must agree bit for bit and
        // the raw label must be the batch verdict.
        csi::CsiSeries sub;
        sub.frames.assign(
            pair.target.frames.begin() +
                static_cast<std::ptrdiff_t>(result.first_frame),
            pair.target.frames.begin() +
                static_cast<std::ptrdiff_t>(result.first_frame + kWindow));
        expect_bit_identical(result.features,
                             wimi.features(pair.baseline, sub));
        const core::IdentificationResult batch =
            wimi.identify(pair.baseline, sub);
        EXPECT_EQ(result.raw_label, batch.material_id);
        EXPECT_EQ(result.raw_name, batch.material_name);

        EXPECT_EQ(result.first_timestamp_s,
                  sub.frames.front().timestamp_s);
        EXPECT_EQ(result.last_timestamp_s, sub.frames.back().timestamp_s);
    }
}

TEST(StreamParity, SteadyStreamAgreesWithWholeTraceVerdict) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);
    const sim::MeasurementPair pair =
        scenario.capture_measurement(rf::Liquid::kOil, 930);

    const core::IdentificationResult batch =
        wimi.identify(pair.baseline, pair.target);

    stream::StreamConfig config;
    config.window = 8;
    config.hop = 4;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, pair.baseline),
        wimi.model());
    const std::vector<stream::WindowResult> windows =
        feed(pipeline, pair.target);

    // A steady single-material stream must settle on the whole-trace
    // label and never report a material change.
    ASSERT_FALSE(windows.empty());
    EXPECT_EQ(pipeline.stable_label(), batch.material_id);
    EXPECT_EQ(pipeline.changes(), 0u);
    EXPECT_EQ(windows.back().stable_name, batch.material_name);
}

TEST(StreamParity, ResetReproducesTheStreamBitForBit) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);
    const sim::MeasurementPair pair =
        scenario.capture_measurement(rf::Liquid::kMilk, 940);

    stream::StreamConfig config;
    config.window = 8;
    config.hop = 4;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, pair.baseline),
        wimi.model());

    const std::vector<stream::WindowResult> first =
        feed(pipeline, pair.target);
    pipeline.reset();
    EXPECT_EQ(pipeline.frames_consumed(), 0u);
    EXPECT_EQ(pipeline.windows_emitted(), 0u);
    EXPECT_EQ(pipeline.stable_label(), -1);

    const std::vector<stream::WindowResult> second =
        feed(pipeline, pair.target);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        expect_bit_identical(second[i].features, first[i].features);
        EXPECT_EQ(second[i].raw_label, first[i].raw_label);
        EXPECT_EQ(second[i].stable_label, first[i].stable_label);
        EXPECT_EQ(second[i].first_frame, first[i].first_frame);
    }
}

TEST(StreamParity, DriftedStreamCannotFabricateChangeEvents) {
    const sim::Scenario scenario = lab_scenario();
    const core::Wimi wimi = trained_wimi(scenario);
    const sim::MeasurementPair pair =
        scenario.capture_measurement(rf::Liquid::kMilk, 950);

    // A PSI reference built from a population far away from anything
    // this stream produces: every window's pool is pure drift.
    const std::vector<double> probe =
        wimi.features(pair.baseline, pair.target);
    ml::Dataset far(probe.size());
    std::vector<double> row(probe.size());
    for (int sample = 0; sample < 32; ++sample) {
        for (std::size_t j = 0; j < row.size(); ++j) {
            row[j] = 1.0e6 + sample + static_cast<double>(j);
        }
        far.add(row, 0);
    }

    stream::StreamConfig config;
    config.window = 8;
    config.hop = 4;
    config.psi.capacity = 8;
    config.psi.min_samples = 1;
    config.psi.threshold = 0.25;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, pair.baseline),
        wimi.model(), ml::make_psi_reference(far, 4));

    const std::vector<stream::WindowResult> windows =
        feed(pipeline, pair.target);
    ASSERT_FALSE(windows.empty());
    for (const stream::WindowResult& result : windows) {
        EXPECT_TRUE(result.psi_valid);
        EXPECT_GT(result.psi, config.psi.threshold);
        EXPECT_TRUE(result.drift_gated);
        EXPECT_FALSE(result.changed);
        // No label ever reached the smoother.
        EXPECT_EQ(result.stable_label, -1);
    }
    EXPECT_EQ(pipeline.drift_gated_windows(), windows.size());
    EXPECT_EQ(pipeline.changes(), 0u);
    EXPECT_EQ(pipeline.stable_label(), -1);
}

}  // namespace
}  // namespace wimi
