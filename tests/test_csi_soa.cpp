// Tests for the structure-of-arrays CSI buffer: plane layout against the
// frame accessors, bit-identity of the scalar amplitude path with
// CsiSeries::amplitude_series, lazy-plane caching, and validation.
#include "csi/soa.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/frame.hpp"
#include "simd/simd.hpp"

namespace wimi::csi {
namespace {

CsiSeries make_series(std::size_t packets, std::size_t antennas,
                      std::size_t subcarriers, std::uint64_t seed) {
    Rng rng(seed);
    CsiSeries series;
    for (std::size_t m = 0; m < packets; ++m) {
        CsiFrame frame(antennas, subcarriers);
        for (std::size_t a = 0; a < antennas; ++a) {
            for (std::size_t k = 0; k < subcarriers; ++k) {
                frame.at(a, k) =
                    Complex(rng.gaussian(0.0, 2.0), rng.gaussian(0.0, 2.0));
            }
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

TEST(CsiSoa, DimensionsMatchSeries) {
    const auto series = make_series(7, 3, 5, 1);
    const CsiSoa soa(series);
    EXPECT_EQ(soa.packet_count(), 7u);
    EXPECT_EQ(soa.antenna_count(), 3u);
    EXPECT_EQ(soa.subcarrier_count(), 5u);
}

TEST(CsiSoa, RealImagPlanesMatchFrameAccessorsBitwise) {
    const auto series = make_series(11, 3, 4, 2);
    const CsiSoa soa(series);
    for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t k = 0; k < 4; ++k) {
            const auto re = soa.real_plane(a, k);
            const auto im = soa.imag_plane(a, k);
            ASSERT_EQ(re.size(), 11u);
            ASSERT_EQ(im.size(), 11u);
            for (std::size_t m = 0; m < 11; ++m) {
                EXPECT_EQ(re[m], series.frames[m].at(a, k).real());
                EXPECT_EQ(im[m], series.frames[m].at(a, k).imag());
            }
        }
    }
}

TEST(CsiSoa, ScalarAmplitudePlaneBitIdenticalToSeries) {
    const auto series = make_series(64, 2, 8, 3);
    const bool before = simd::enabled();
    simd::set_enabled(false);  // scalar path: std::abs, the legacy formula
    const CsiSoa soa(series);
    for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t k = 0; k < 8; ++k) {
            const auto plane = soa.amplitude_plane(a, k);
            const auto legacy = series.amplitude_series(a, k);
            ASSERT_EQ(plane.size(), legacy.size());
            for (std::size_t m = 0; m < legacy.size(); ++m) {
                EXPECT_EQ(plane[m], legacy[m])
                    << "a=" << a << " k=" << k << " m=" << m;
            }
        }
    }
    simd::set_enabled(before);
}

TEST(CsiSoa, SimdAmplitudePlaneWithinUlpOfLegacy) {
    const auto series = make_series(64, 2, 8, 4);
    const CsiSoa soa(series);  // whatever path the build/env selected
    for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t k = 0; k < 8; ++k) {
            const auto plane = soa.amplitude_plane(a, k);
            const auto legacy = series.amplitude_series(a, k);
            for (std::size_t m = 0; m < legacy.size(); ++m) {
                EXPECT_NEAR(plane[m], legacy[m], 1e-13 * legacy[m] + 1e-300);
            }
        }
    }
}

TEST(CsiSoa, LazyPlanesAreCachedStableSpans) {
    const auto series = make_series(16, 2, 3, 6);
    const CsiSoa soa(series);
    const auto first = soa.amplitude_plane(1, 2);
    const auto second = soa.amplitude_plane(1, 2);
    EXPECT_EQ(first.data(), second.data());  // same backing storage
}

TEST(CsiSoa, RejectsEmptyAndInconsistentSeries) {
    EXPECT_THROW(CsiSoa{CsiSeries{}}, Error);
    CsiSeries mixed;
    mixed.frames.emplace_back(2, 3);
    mixed.frames.emplace_back(2, 4);
    EXPECT_THROW(CsiSoa{mixed}, Error);
}

TEST(CsiSoa, PlaneAccessorsBoundsChecked) {
    const auto series = make_series(4, 2, 3, 7);
    const CsiSoa soa(series);
    EXPECT_THROW(soa.real_plane(2, 0), Error);
    EXPECT_THROW(soa.imag_plane(0, 3), Error);
    EXPECT_THROW(soa.amplitude_plane(2, 3), Error);
}

}  // namespace
}  // namespace wimi::csi
