// Tests for CSI frame and series containers.
#include "csi/frame.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace wimi::csi {
namespace {

CsiFrame make_frame(std::size_t antennas, std::size_t subcarriers,
                    double scale) {
    CsiFrame frame(antennas, subcarriers);
    for (std::size_t a = 0; a < antennas; ++a) {
        for (std::size_t k = 0; k < subcarriers; ++k) {
            frame.at(a, k) = scale * Complex(static_cast<double>(a + 1),
                                             static_cast<double>(k + 1));
        }
    }
    return frame;
}

TEST(CsiFrame, DimensionsAndAccess) {
    CsiFrame frame(3, 30);
    EXPECT_EQ(frame.antenna_count(), 3u);
    EXPECT_EQ(frame.subcarrier_count(), 30u);
    frame.at(2, 29) = Complex(1.0, -1.0);
    EXPECT_EQ(frame.at(2, 29), Complex(1.0, -1.0));
    EXPECT_THROW(frame.at(3, 0), Error);
    EXPECT_THROW(frame.at(0, 30), Error);
}

TEST(CsiFrame, ZeroDimensionsRejected) {
    EXPECT_THROW(CsiFrame(0, 10), Error);
    EXPECT_THROW(CsiFrame(2, 0), Error);
}

TEST(CsiFrame, AmplitudeAndPhase) {
    CsiFrame frame(1, 1);
    frame.at(0, 0) = Complex(3.0, 4.0);
    EXPECT_DOUBLE_EQ(frame.amplitude(0, 0), 5.0);
    EXPECT_NEAR(frame.phase(0, 0), std::atan2(4.0, 3.0), 1e-12);
}

TEST(CsiFrame, RawStorageIsAntennaMajor) {
    auto frame = make_frame(2, 3, 1.0);
    const auto raw = frame.raw();
    ASSERT_EQ(raw.size(), 6u);
    EXPECT_EQ(raw[0], frame.at(0, 0));
    EXPECT_EQ(raw[3], frame.at(1, 0));
}

TEST(CsiSeries, ValidateCatchesMixedDimensions) {
    CsiSeries series;
    series.frames.push_back(make_frame(2, 3, 1.0));
    series.frames.push_back(make_frame(2, 3, 2.0));
    EXPECT_NO_THROW(series.validate());
    series.frames.push_back(make_frame(3, 3, 1.0));
    EXPECT_THROW(series.validate(), Error);
}

TEST(CsiSeries, EmptyProperties) {
    CsiSeries series;
    EXPECT_TRUE(series.empty());
    EXPECT_EQ(series.antenna_count(), 0u);
    EXPECT_EQ(series.subcarrier_count(), 0u);
    EXPECT_NO_THROW(series.validate());
}

TEST(CsiSeries, AmplitudeSeries) {
    CsiSeries series;
    for (int p = 1; p <= 4; ++p) {
        series.frames.push_back(make_frame(2, 3, static_cast<double>(p)));
    }
    const auto amps = series.amplitude_series(1, 2);
    ASSERT_EQ(amps.size(), 4u);
    const double base = std::abs(Complex(2.0, 3.0));
    for (int p = 1; p <= 4; ++p) {
        EXPECT_NEAR(amps[static_cast<std::size_t>(p - 1)], p * base, 1e-12);
    }
}

TEST(CsiSeries, PhaseDifferenceSeriesWrapped) {
    CsiSeries series;
    CsiFrame frame(2, 1);
    frame.at(0, 0) = std::polar(1.0, 3.0);
    frame.at(1, 0) = std::polar(1.0, -3.0);
    series.frames.push_back(frame);
    const auto diffs = series.phase_difference_series(0, 1, 0);
    ASSERT_EQ(diffs.size(), 1u);
    // 3 - (-3) = 6 wraps to 6 - 2*pi.
    EXPECT_NEAR(diffs[0], 6.0 - 2.0 * kPi, 1e-12);
}

TEST(CsiFrame, IsFiniteChecksEveryStoredValue) {
    CsiFrame frame(2, 2);
    frame.at(0, 0) = Complex(1.0, -2.0);
    EXPECT_TRUE(frame.is_finite());
    frame.at(1, 1) =
        Complex(0.0, std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(frame.is_finite());
    frame.at(1, 1) = Complex(0.0, 0.0);
    frame.timestamp_s = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(frame.is_finite());
    frame.timestamp_s = 0.0;
    frame.rssi_dbm = -std::numeric_limits<double>::infinity();
    EXPECT_FALSE(frame.is_finite());
}

}  // namespace
}  // namespace wimi::csi
