// The baseline half of a stream's features (DESIGN.md §13): built once,
// when the WindowFeatureExtractor is constructed, and never per window.
//
// A baseline that cannot serve the model therefore fails at construction
// instead of at every window; a window whose geometry differs from the
// baseline's is still rejected; and the `feature.baseline_references`
// counter proves the one-build-per-stream property without timing
// anything.
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "core/wimi.hpp"
#include "csi/soa.hpp"
#include "obs/obs.hpp"
#include "pipeline_test_util.hpp"
#include "stream/pipeline.hpp"

namespace wimi {
namespace {

constexpr std::size_t kAntennas = 3;
constexpr std::size_t kSubcarriers = 8;

csi::CsiSeries series(std::size_t packets, std::uint64_t seed,
                      std::size_t antennas = kAntennas,
                      std::size_t subcarriers = kSubcarriers) {
    std::vector<double> amps;
    std::vector<double> phases;
    for (std::size_t a = 0; a < antennas; ++a) {
        amps.push_back(1.0 - 0.1 * static_cast<double>(a));
        phases.push_back(0.3 * static_cast<double>(a) - 0.2);
    }
    return testutil::synthetic_series(amps, phases, packets, 0.02, 0.01,
                                      seed, subcarriers);
}

const std::vector<core::AntennaPair> kPairs = {{0, 1}, {0, 2}};
const std::vector<std::size_t> kSelected = {0, 3, 5};

core::WindowFeatureExtractor extractor_for(const csi::CsiSeries& baseline) {
    return core::WindowFeatureExtractor(baseline, kPairs, kSelected,
                                        core::FeatureConfig{});
}

TEST(StreamBaseline, ExtractorRejectsABaselineThatCannotServeTheModel) {
    const csi::CsiSeries good = series(24, 5);
    const csi::CsiSeries window = series(16, 6);
    ASSERT_NO_THROW(extractor_for(good).extract(window));

    // Each fault sits on an antenna of a selected pair at a selected
    // subcarrier, so every window measured against it would throw.
    std::vector<csi::CsiSeries> bad(4, good);
    bad[0].frames[4].at(1, 3) = {std::numeric_limits<double>::quiet_NaN(),
                                 0.0};
    bad[1].frames[9].at(0, 5) = {std::numeric_limits<double>::infinity(),
                                 0.0};
    for (csi::CsiFrame& frame : bad[2].frames) {
        frame.at(2, 0) = {0.0, 0.0};  // reference antenna of pair {0, 2}
    }
    bad[3].frames[0].at(0, 0) = {0.0,
                                 -std::numeric_limits<double>::infinity()};
    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(extractor_for(bad[i]), Error) << "fault " << i;
        EXPECT_THROW(core::extract_feature_vector(bad[i], window, kPairs,
                                                  kSelected, {}),
                     Error)
            << "fault " << i;
    }

    // Selections outside the baseline's geometry.
    EXPECT_THROW(core::WindowFeatureExtractor(good, {{0, kAntennas}},
                                              kSelected, {}),
                 Error);
    EXPECT_THROW(core::WindowFeatureExtractor(good, kPairs, {kSubcarriers},
                                              {}),
                 Error);
    EXPECT_THROW(core::WindowFeatureExtractor(good, {}, kSelected, {}),
                 Error);
    EXPECT_THROW(core::WindowFeatureExtractor(good, kPairs, {}, {}), Error);
    EXPECT_THROW(core::WindowFeatureExtractor(csi::CsiSeries{}, kPairs,
                                              kSelected, {}),
                 Error);

    // A fault nowhere near the selection leaves the baseline usable, as
    // it does for the batch path.
    csi::CsiSeries off_selection = good;
    off_selection.frames[2].at(1, 7) = {
        std::numeric_limits<double>::quiet_NaN(), 0.0};
    EXPECT_EQ(extractor_for(off_selection).extract(window),
              core::extract_feature_vector(off_selection, window, kPairs,
                                           kSelected, {}));
}

TEST(StreamBaseline, WindowWithOtherGeometryIsRejected) {
    // Every index below exists in every series, so only the geometry
    // check stands between these windows and a feature vector.
    const std::vector<core::AntennaPair> pairs = {{0, 1}};
    const std::vector<std::size_t> selected = {0, 3};
    const csi::CsiSeries baseline = series(24, 7);
    const core::WindowFeatureExtractor extractor(baseline, pairs, selected,
                                                 {});
    const core::BaselineReference reference(csi::CsiSoa(baseline), pairs,
                                            selected, {});
    ASSERT_NO_THROW(extractor.extract(series(16, 8)));

    const csi::CsiSeries other[] = {
        series(16, 8, kAntennas - 1), series(16, 8, kAntennas + 1),
        series(16, 8, kAntennas, kSubcarriers - 2),
        series(16, 8, kAntennas, kSubcarriers + 2)};
    for (const csi::CsiSeries& window : other) {
        EXPECT_THROW(extractor.extract(window), Error);
        EXPECT_THROW(core::extract_feature_vector(baseline, window, pairs,
                                                  selected, {}),
                     Error);
        EXPECT_THROW(core::extract_feature_vector(csi::CsiSoa(baseline),
                                                  csi::CsiSoa(window), pairs,
                                                  selected, {}),
                     Error);
        EXPECT_THROW(
            core::extract_feature_vector(reference, csi::CsiSoa(window)),
            Error);
    }
}

TEST(StreamBaseline, BaselineReferenceIsBuiltOncePerStream) {
#if defined(WIMI_OBS_DISABLED)
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)";
#endif
    obs::set_enabled(true);
    const auto references = [] {
        return obs::registry().counter("feature.baseline_references").value();
    };
    const auto vectors = [] {
        return obs::registry().counter("feature.vectors_extracted").value();
    };

    core::WimiConfig config;
    config.pairs = kPairs;
    config.subcarriers = kSelected;
    const core::Wimi wimi(config);
    const csi::CsiSeries baseline = series(24, 9);
    const csi::CsiSeries target = series(40, 10);
    const core::Model model = testutil::tiny_model(kPairs, kSelected);

    const std::uint64_t references_before = references();
    const std::uint64_t vectors_before = vectors();
    stream::StreamConfig stream_config;
    stream_config.window = 16;
    stream_config.hop = 4;
    stream::StreamingPipeline pipeline(
        stream_config, core::make_window_extractor(wimi, baseline), model);
    std::uint64_t windows = 0;
    for (const csi::CsiFrame& frame : target.frames) {
        windows += pipeline.push(frame).has_value() ? 1 : 0;
    }
    ASSERT_EQ(windows, 7u);
    EXPECT_EQ(references() - references_before, 1u);
    EXPECT_EQ(vectors() - vectors_before, windows);

    for (std::uint64_t call = 1; call <= 3; ++call) {
        wimi.features(baseline, target);
        EXPECT_EQ(references() - references_before, 1u + call);
    }
}

}  // namespace
}  // namespace wimi
