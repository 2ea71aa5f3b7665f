// Tests for the decimated DWT and the undecimated a-trous transform.
#include "dsp/wavelet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace wimi::dsp {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> v(n);
    for (double& x : v) {
        x = rng.uniform(-2.0, 2.0);
    }
    return v;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return m;
}

TEST(Dwt, ScalingFiltersAreNormalized) {
    for (const Wavelet w : {Wavelet::kHaar, Wavelet::kDb2, Wavelet::kDb4}) {
        const auto h = scaling_filter(w);
        double sum = 0.0;
        double sum_sq = 0.0;
        for (const double c : h) {
            sum += c;
            sum_sq += c * c;
        }
        EXPECT_NEAR(sum, std::sqrt(2.0), 1e-9);  // DC normalization
        EXPECT_NEAR(sum_sq, 1.0, 1e-9);          // orthonormality
    }
}

TEST(Dwt, MaxLevels) {
    // Periodized transform: levels limited by evenness and by the filter
    // length (64 -> 32 -> ... -> 1 for Haar; db4 stops once the
    // approximation is shorter than its 8 taps).
    EXPECT_EQ(max_dwt_levels(64, Wavelet::kHaar), 6u);
    EXPECT_EQ(max_dwt_levels(64, Wavelet::kDb4), 4u);
    EXPECT_EQ(max_dwt_levels(7, Wavelet::kHaar), 0u);
}

TEST(Dwt, HalvesLengthPerLevel) {
    const auto x = random_signal(64, 1);
    const auto d = dwt(x, Wavelet::kDb2, 3);
    EXPECT_EQ(d.details.size(), 3u);
    EXPECT_EQ(d.details[0].size(), 32u);
    EXPECT_EQ(d.details[1].size(), 16u);
    EXPECT_EQ(d.details[2].size(), 8u);
    EXPECT_EQ(d.approx.size(), 8u);
}

TEST(Dwt, EnergyPreserved) {
    const auto x = random_signal(128, 2);
    const auto d = dwt(x, Wavelet::kDb4, 2);
    double in_energy = 0.0;
    for (const double v : x) {
        in_energy += v * v;
    }
    double out_energy = 0.0;
    for (const auto& level : d.details) {
        for (const double v : level) {
            out_energy += v * v;
        }
    }
    for (const double v : d.approx) {
        out_energy += v * v;
    }
    EXPECT_NEAR(out_energy, in_energy, 1e-9 * in_energy);
}

TEST(Dwt, HaarMatchesHandComputation) {
    const std::vector<double> x = {1.0, 3.0, 2.0, 6.0};
    const auto d = dwt(x, Wavelet::kHaar, 1);
    const double s = std::sqrt(2.0);
    EXPECT_NEAR(d.approx[0], 4.0 / s * 1.0, 1e-12);   // (1+3)/sqrt2
    EXPECT_NEAR(d.approx[1], 8.0 / s * 1.0, 1e-12);   // (2+6)/sqrt2
    EXPECT_NEAR(d.details[0][0], -2.0 / s, 1e-12);    // (1-3)/sqrt2
    EXPECT_NEAR(d.details[0][1], -4.0 / s, 1e-12);
}

TEST(Dwt, TooManyLevelsThrows) {
    const auto x = random_signal(16, 3);
    EXPECT_THROW(dwt(x, Wavelet::kHaar, 10), Error);
    EXPECT_THROW(dwt(x, Wavelet::kHaar, 0), Error);
    EXPECT_THROW(dwt({}, Wavelet::kHaar, 1), Error);
}

TEST(Dwt, OddLengthHandled) {
    const auto x = random_signal(63, 4);
    const auto d = dwt(x, Wavelet::kHaar, 2);
    const auto back = idwt(d);
    ASSERT_EQ(back.size(), 63u);
    // Reconstruction with reflect-padding matches except possibly the last
    // padded sample's neighbourhood; Haar with duplicated last sample is
    // exact everywhere.
    EXPECT_LT(max_abs_diff(x, back), 1e-9);
}

// Perfect reconstruction across wavelets, lengths and depths.
class DwtRoundTrip
    : public ::testing::TestWithParam<std::tuple<Wavelet, int, int>> {};

TEST_P(DwtRoundTrip, Reconstructs) {
    const auto [wavelet, n, levels] = GetParam();
    if (static_cast<std::size_t>(levels) >
        max_dwt_levels(static_cast<std::size_t>(n), wavelet)) {
        GTEST_SKIP() << "combination not representable";
    }
    const auto x = random_signal(static_cast<std::size_t>(n), 99);
    const auto back = idwt(dwt(x, wavelet, static_cast<std::size_t>(levels)));
    ASSERT_EQ(back.size(), x.size());
    EXPECT_LT(max_abs_diff(x, back), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DwtRoundTrip,
    ::testing::Combine(::testing::Values(Wavelet::kHaar, Wavelet::kDb2,
                                         Wavelet::kDb4),
                       ::testing::Values(16, 64, 128, 256),
                       ::testing::Values(1, 2, 3)));

TEST(Atrous, PlanesSumToInput) {
    const auto x = random_signal(100, 5);
    const auto d = atrous_decompose(x, 4);
    EXPECT_EQ(d.levels, 4u);
    EXPECT_EQ(d.length, x.size());
    EXPECT_EQ(d.planes.size(), 5 * x.size());
    std::vector<double> back(x.size());
    atrous_reconstruct(d, back);
    EXPECT_LT(max_abs_diff(x, back), 1e-12);
}

TEST(Atrous, SmoothSignalConcentratesInApprox) {
    std::vector<double> x(256);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 256.0);
    }
    const auto d = atrous_decompose(x, 4);
    double detail_energy = 0.0;
    for (std::size_t l = 0; l < d.levels; ++l) {
        for (const double v : d.plane(l)) {
            detail_energy += v * v;
        }
    }
    double approx_energy = 0.0;
    for (const double v : d.plane(d.levels)) {
        approx_energy += v * v;
    }
    EXPECT_GT(approx_energy, 10.0 * detail_energy);
}

TEST(Atrous, ImpulseConcentratesInFineDetail) {
    std::vector<double> x(128, 0.0);
    x[64] = 1.0;
    const auto d = atrous_decompose(x, 4);
    double fine = 0.0;
    for (const double v : d.plane(0)) {
        fine += v * v;
    }
    double coarse = 0.0;
    for (const double v : d.plane(3)) {
        coarse += v * v;
    }
    EXPECT_GT(fine, coarse);
}

TEST(Atrous, Validation) {
    EXPECT_THROW(atrous_decompose({}, 2), Error);
    const std::vector<double> x = {1.0, 2.0};
    EXPECT_THROW(atrous_decompose(x, 0), Error);
}

/// The planes are public fields, so reconstruction re-checks that they
/// hold levels + 1 planes of `length` before reading any of them.
TEST(Atrous, ReconstructRejectsInconsistentPlanes) {
    const auto x = random_signal(16, 3);
    auto d = atrous_decompose(x, 3);
    std::vector<double> out(x.size());
    const auto message_of = [&](const AtrousDecomposition& bad,
                                std::span<double> target) {
        try {
            atrous_reconstruct(bad, target);
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    d.planes.pop_back();
    EXPECT_EQ(message_of(d, out),
              "atrous_reconstruct: inconsistent plane sizes");
    d.planes.resize(4 * x.size());
    d.levels = 4;
    EXPECT_EQ(message_of(d, out),
              "atrous_reconstruct: inconsistent plane sizes");
    d.levels = 3;
    std::vector<double> short_out(x.size() - 1);
    EXPECT_EQ(message_of(d, short_out),
              "atrous_reconstruct: output length differs from the planes");
    EXPECT_EQ(message_of(AtrousDecomposition{}, out),
              "atrous_reconstruct: empty decomposition");
}

}  // namespace
}  // namespace wimi::dsp
