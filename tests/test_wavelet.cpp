// Tests for the undecimated a-trous wavelet transform.
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
