// Tests for capture-level signal-quality probes (csi/quality).
#include "csi/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "pipeline_test_util.hpp"

namespace wimi::csi {
namespace {

using testutil::synthetic_series;

TEST(AmplitudeCv, ZeroForConstantAmplitude) {
    const auto series = synthetic_series({2.0, 3.0}, {0.1, 0.2}, 50);
    for (std::size_t a = 0; a < 2; ++a) {
        const auto cv = amplitude_cv_per_subcarrier(series, a);
        ASSERT_EQ(cv.size(), series.subcarrier_count());
        for (const double v : cv) {
            EXPECT_NEAR(v, 0.0, 1e-12);
        }
    }
}

TEST(AmplitudeCv, TracksRelativeNotAbsoluteSpread) {
    // Same 5% relative amplitude noise on a weak and a strong antenna:
    // the CV — stddev normalized by the mean — reads ~0.05 on both, which
    // is what makes cells comparable across chains.
    const auto series = synthetic_series({1.0, 20.0}, {0.0, 0.0}, 4000,
                                         /*amp_noise=*/0.05, 0.0, 17);
    const auto weak = amplitude_cv_per_subcarrier(series, 0);
    const auto strong = amplitude_cv_per_subcarrier(series, 1);
    EXPECT_NEAR(weak.front(), 0.05, 0.01);
    EXPECT_NEAR(strong.front(), 0.05, 0.01);
}

TEST(AmplitudeQuality, WorstCellStandsOutInCvMax) {
#if defined(WIMI_OBS_DISABLED)
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)";
#endif
    // One noisy chain among quiet ones: the cv_max gauge must report the
    // bad chain while cv_mean stays pulled down by the healthy ones.
    const auto series = synthetic_series({1.0, 1.0}, {0.0, 0.0}, 2000,
                                         0.0, 0.0, 5);
    auto noisy = synthetic_series({1.0, 1.0}, {0.0, 0.0}, 2000,
                                  /*amp_noise=*/0.2, 0.0, 5);
    // Splice: antenna 1 of `noisy` replaces antenna 1 of the clean series.
    csi::CsiSeries mixed = series;
    for (std::size_t p = 0; p < mixed.packet_count(); ++p) {
        for (std::size_t k = 0; k < mixed.subcarrier_count(); ++k) {
            mixed.frames[p].at(1, k) = noisy.frames[p].at(1, k);
        }
    }
    obs::set_enabled(true);
    obs::registry().reset();
    record_signal_quality(mixed);
    double cv_mean = -1.0;
    double cv_max = -1.0;
    for (const auto& [name, value] : obs::registry().snapshot().gauges) {
        if (name == "quality.amplitude.cv_mean") {
            cv_mean = value;
        }
        if (name == "quality.amplitude.cv_max") {
            cv_max = value;
        }
    }
    obs::registry().reset();
    EXPECT_NEAR(cv_max, 0.2, 0.05);
    EXPECT_GE(cv_mean, 0.0);
    EXPECT_LT(cv_mean, cv_max / 1.5);
}

TEST(RatioStability, CommonModeGainCancels) {
    // A per-packet gain applied to BOTH antennas (AGC behaviour) must not
    // move the ratio; per-antenna noise must. This is the paper's Fig. 8
    // argument in probe form.
    Rng rng(23);
    auto common = synthetic_series({1.0, 2.0}, {0.0, 0.0}, 1500);
    for (auto& frame : common.frames) {
        const double gain = 1.0 + rng.gaussian(0.0, 0.3);
        for (std::size_t a = 0; a < 2; ++a) {
            for (std::size_t k = 0; k < common.subcarrier_count(); ++k) {
                frame.at(a, k) *= gain;
            }
        }
    }
    const double common_var = amplitude_ratio_stability(common, 0, 1, 0);
    EXPECT_NEAR(common_var, 0.0, 1e-12);

    const auto independent = synthetic_series({1.0, 2.0}, {0.0, 0.0}, 1500,
                                              /*amp_noise=*/0.1, 0.0, 29);
    EXPECT_GT(amplitude_ratio_stability(independent, 0, 1, 0),
              100.0 * common_var + 1e-4);
}

TEST(RatioStability, SkipsZeroAmplitudeDenominatorFrames) {
    // A quantized capture can hold a frame whose second antenna reads
    // exactly zero at subcarrier 0; the probe must drop that frame and
    // report the stability of the rest rather than throw.
    const auto clean = synthetic_series({1.0, 2.0}, {0.0, 0.0}, 40,
                                        /*amp_noise=*/0.05, 0.0, 31);
    auto holed = clean;
    holed.frames[7].at(1, 0) = {0.0, 0.0};
    auto remaining = clean;
    remaining.frames.erase(remaining.frames.begin() + 7);

    const double expected = amplitude_ratio_stability(remaining, 0, 1, 0);
    EXPECT_GT(expected, 0.0);
    EXPECT_EQ(amplitude_ratio_stability(holed, 0, 1, 0), expected);
}

TEST(RecordSignalQuality, PopulatesRegistryWhenEnabled) {
#if defined(WIMI_OBS_DISABLED)
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)";
#endif
    obs::set_enabled(true);
    obs::registry().reset();
    const auto series = synthetic_series({1.0, 2.0, 3.0}, {0.0, 0.1, 0.2},
                                         40, 0.02, 0.0, 31);
    record_signal_quality(series);

    const auto snap = obs::registry().snapshot();
    bool saw_cv_hist = false;
    bool saw_ratio_hist = false;
    for (const auto& [name, summary] : snap.histograms) {
        if (name == "quality.amplitude.subcarrier_cv") {
            saw_cv_hist = true;
            // One sample per (antenna, subcarrier) cell.
            EXPECT_EQ(summary.count,
                      series.antenna_count() * series.subcarrier_count());
        }
        if (name == "quality.pair.ratio_variance") {
            saw_ratio_hist = true;
            EXPECT_EQ(summary.count, 3u);  // 3 pairs of 3 antennas
        }
    }
    EXPECT_TRUE(saw_cv_hist);
    EXPECT_TRUE(saw_ratio_hist);
    bool saw_mean = false;
    bool saw_max = false;
    for (const auto& [name, value] : snap.gauges) {
        saw_mean = saw_mean || name == "quality.amplitude.cv_mean";
        saw_max = saw_max || name == "quality.amplitude.cv_max";
    }
    EXPECT_TRUE(saw_mean);
    EXPECT_TRUE(saw_max);
    obs::registry().reset();
}

TEST(RecordSignalQuality, EmptySeriesIsANoOp) {
    // reset() zeroes values but keeps names registered, so check for
    // recorded samples rather than the absence of histogram entries
    // (another test in this process may already have registered them).
    obs::registry().reset();
    record_signal_quality(csi::CsiSeries{});
    for (const auto& [name, summary] :
         obs::registry().snapshot().histograms) {
        EXPECT_EQ(summary.count, 0u) << name;
    }
}

}  // namespace
}  // namespace wimi::csi
