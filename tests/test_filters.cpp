// Tests for the classical filters of the Fig. 7 comparison.
#include "dsp/filters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"

namespace wimi::dsp {
namespace {

std::vector<double> sine(double freq_hz, double fs, std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::sin(kTwoPi * freq_hz * static_cast<double>(i) / fs);
    }
    return v;
}

double peak(const std::vector<double>& v, std::size_t skip) {
    double p = 0.0;
    for (std::size_t i = skip; i < v.size(); ++i) {
        p = std::max(p, std::abs(v[i]));
    }
    return p;
}

TEST(MedianFilter, RemovesImpulse) {
    std::vector<double> v(21, 1.0);
    v[10] = 50.0;
    const auto f = median_filter(v, 5);
    ASSERT_EQ(f.size(), v.size());
    for (const double x : f) {
        EXPECT_DOUBLE_EQ(x, 1.0);
    }
}

TEST(MedianFilter, PreservesMonotoneRamp) {
    std::vector<double> v;
    for (int i = 0; i < 20; ++i) {
        v.push_back(static_cast<double>(i));
    }
    const auto f = median_filter(v, 3);
    for (std::size_t i = 1; i + 1 < v.size(); ++i) {
        EXPECT_DOUBLE_EQ(f[i], v[i]);
    }
}

TEST(MedianFilter, WindowOneIsIdentity) {
    const std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0};
    EXPECT_EQ(median_filter(v, 1), v);
}

TEST(MedianFilter, Validation) {
    const std::vector<double> v = {1.0, 2.0};
    EXPECT_THROW(median_filter({}, 3), Error);
    EXPECT_THROW(median_filter(v, 4), Error);  // even window
}

TEST(SlidingMeanFilter, AveragesNeighbourhood) {
    const std::vector<double> v = {0.0, 3.0, 6.0, 9.0, 12.0};
    const auto f = sliding_mean_filter(v, 3);
    EXPECT_DOUBLE_EQ(f[2], 6.0);
    EXPECT_DOUBLE_EQ(f[1], 3.0);
    // Edges use the shrunken window (just the sample itself at index 0).
    EXPECT_DOUBLE_EQ(f[0], 0.0);
}

TEST(SlidingMeanFilter, ConstantInvariant) {
    const std::vector<double> v(17, 4.2);
    const auto f = sliding_mean_filter(v, 7);
    for (const double x : f) {
        EXPECT_NEAR(x, 4.2, 1e-12);
    }
}

TEST(Butterworth, DesignValidation) {
    EXPECT_THROW(ButterworthLowPass(0, 1.0, 10.0), Error);
    EXPECT_THROW(ButterworthLowPass(2, 0.0, 10.0), Error);
    EXPECT_THROW(ButterworthLowPass(2, 6.0, 10.0), Error);  // above Nyquist
}

TEST(Butterworth, SectionCount) {
    EXPECT_EQ(ButterworthLowPass(1, 1.0, 10.0).sections().size(), 1u);
    EXPECT_EQ(ButterworthLowPass(4, 1.0, 10.0).sections().size(), 2u);
    EXPECT_EQ(ButterworthLowPass(5, 1.0, 10.0).sections().size(), 3u);
}

TEST(Butterworth, UnityDcGain) {
    const ButterworthLowPass lp(4, 5.0, 100.0);
    const std::vector<double> step(500, 1.0);
    const auto out = lp.filter(step);
    EXPECT_NEAR(out.back(), 1.0, 1e-6);
}

TEST(Butterworth, PassesLowFrequency) {
    const ButterworthLowPass lp(4, 10.0, 100.0);
    const auto in = sine(1.0, 100.0, 1000);
    const auto out = lp.filter(in);
    EXPECT_NEAR(peak(out, 200), 1.0, 0.05);
}

TEST(Butterworth, AttenuatesHighFrequency) {
    const ButterworthLowPass lp(4, 5.0, 100.0);
    const auto in = sine(40.0, 100.0, 1000);
    const auto out = lp.filter(in);
    // 3 octaves above cutoff at 24 dB/octave: expect > 60 dB attenuation.
    EXPECT_LT(peak(out, 200), 1e-3);
}

TEST(Butterworth, MinusThreeDbAtCutoff) {
    const ButterworthLowPass lp(2, 10.0, 100.0);
    const auto in = sine(10.0, 100.0, 4000);
    const auto out = lp.filter(in);
    EXPECT_NEAR(peak(out, 1000), std::sqrt(0.5), 0.02);
}

TEST(Butterworth, FiltfiltIsZeroPhase) {
    const ButterworthLowPass lp(4, 5.0, 100.0);
    const auto in = sine(1.0, 100.0, 800);
    const auto out = lp.filtfilt(in);
    ASSERT_EQ(out.size(), in.size());
    // Zero phase: output tracks input sample-for-sample in the passband.
    double max_err = 0.0;
    for (std::size_t i = 100; i + 100 < in.size(); ++i) {
        max_err = std::max(max_err, std::abs(out[i] - in[i]));
    }
    EXPECT_LT(max_err, 0.02);
}

TEST(Butterworth, FiltfiltShortInput) {
    const ButterworthLowPass lp(2, 5.0, 100.0);
    const std::vector<double> v = {1.0, 2.0, 3.0};
    const auto out = lp.filtfilt(v);
    EXPECT_EQ(out.size(), v.size());
}

TEST(Butterworth, EmptyInputThrows) {
    const ButterworthLowPass lp(2, 5.0, 100.0);
    EXPECT_THROW(lp.filter({}), Error);
    EXPECT_THROW(lp.filtfilt({}), Error);
}

// Property: for any valid order/cutoff, DC passes and Nyquist-adjacent
// tones are attenuated.
class ButterworthProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ButterworthProperty, PassbandAndStopband) {
    const auto [order, cutoff] = GetParam();
    const double fs = 100.0;
    const ButterworthLowPass lp(static_cast<std::size_t>(order), cutoff, fs);
    const std::vector<double> dc(600, 1.0);
    EXPECT_NEAR(lp.filter(dc).back(), 1.0, 1e-3);
    const auto hf = sine(48.0, fs, 1200);
    EXPECT_LT(peak(lp.filter(hf), 400), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ButterworthProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                       ::testing::Values(2.0, 5.0, 10.0, 20.0)));

TEST(FiltersEdgeCases, MedianFilterRejectsNonFinite) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        const std::vector<double> v = {1.0, 2.0, bad, 4.0, 5.0};
        try {
            median_filter(v, 3);
            ADD_FAILURE() << "median_filter accepted " << bad;
        } catch (const Error& e) {
            EXPECT_STREQ(e.what(),
                         "median_filter: input contains a non-finite value");
        }
    }
}

TEST(FiltersEdgeCases, SlidingMeanPropagatesNonFiniteLocally) {
    // A NaN contaminates exactly the windows that cover it and no others.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> v = {1.0, 1.0, 1.0, 1.0, nan, 1.0, 1.0, 1.0, 1.0};
    const auto out = sliding_mean_filter(v, 3);
    ASSERT_EQ(out.size(), v.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i >= 3 && i <= 5) {
            EXPECT_TRUE(std::isnan(out[i])) << "index " << i;
        } else {
            EXPECT_DOUBLE_EQ(out[i], 1.0) << "index " << i;
        }
    }
}

TEST(FiltersEdgeCases, SingleSampleInputs) {
    const std::vector<double> one = {3.25};
    EXPECT_EQ(median_filter(one, 5), one);
    EXPECT_EQ(sliding_mean_filter(one, 5), one);
    const ButterworthLowPass lp(2, 2.0, 100.0);
    EXPECT_EQ(lp.filter(one).size(), 1u);
    // filtfilt's reflective pad degenerates to zero for n == 1.
    EXPECT_EQ(lp.filtfilt(one).size(), 1u);
}

TEST(FiltersEdgeCases, ConstantInputsPassThrough) {
    const std::vector<double> flat(256, 2.5);
    EXPECT_EQ(median_filter(flat, 7), flat);
    EXPECT_EQ(sliding_mean_filter(flat, 7), flat);
    // filtfilt zero-initializes each section's state, so a startup
    // transient rings near both edges before the reflective pad absorbs
    // it; only the interior is expected to sit at the DC level.
    const ButterworthLowPass lp(4, 5.0, 100.0);
    const auto out = lp.filtfilt(flat);
    ASSERT_EQ(out.size(), flat.size());
    for (std::size_t i = 64; i + 64 < out.size(); ++i) {
        EXPECT_NEAR(out[i], 2.5, 5e-4) << "index " << i;
    }
}

}  // namespace
}  // namespace wimi::dsp
