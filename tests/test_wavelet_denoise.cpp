// Tests for the spatially-selective wavelet-correlation denoiser
// (paper Sec. III-C, Eq. 8-13).
#include "dsp/wavelet_denoise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/stats.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

namespace wimi::dsp {
namespace {

// A slow drift plus plateau, resembling a CSI amplitude series.
std::vector<double> smooth_signal(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = 10.0 + std::sin(2.0 * M_PI * static_cast<double>(i) /
                               static_cast<double>(n));
    }
    return v;
}

std::vector<double> add_impulses(std::vector<double> v, double magnitude,
                                 std::uint64_t seed, double probability) {
    Rng rng(seed);
    for (double& x : v) {
        if (rng.bernoulli(probability)) {
            x += (rng.bernoulli(0.5) ? 1.0 : -1.0) * magnitude;
        }
    }
    return v;
}

TEST(WaveletDenoise, ReducesImpulseError) {
    const auto clean = smooth_signal(256);
    const auto noisy = add_impulses(clean, 8.0, 11, 0.05);
    const auto denoised = wavelet_correlation_denoise(noisy);
    ASSERT_EQ(denoised.size(), clean.size());
    EXPECT_LT(rmse(denoised, clean), 0.5 * rmse(noisy, clean));
}

TEST(WaveletDenoise, NearlyPreservesCleanSignal) {
    const auto clean = smooth_signal(256);
    const auto denoised = wavelet_correlation_denoise(clean);
    EXPECT_LT(rmse(denoised, clean), 0.05);
}

TEST(WaveletDenoise, PreservesMeanLevel) {
    const auto clean = smooth_signal(128);
    const auto noisy = add_impulses(clean, 10.0, 13, 0.04);
    const auto denoised = wavelet_correlation_denoise(noisy);
    EXPECT_NEAR(mean(denoised), mean(clean), 0.3);
}

TEST(WaveletDenoise, ReportIsFilled) {
    const auto noisy = add_impulses(smooth_signal(128), 6.0, 17, 0.06);
    WaveletDenoiseConfig config;
    config.levels = 4;
    WaveletDenoiseReport report;
    wavelet_correlation_denoise(noisy, config, &report);
    ASSERT_EQ(report.iterations_per_scale.size(), 4u);
    ASSERT_EQ(report.residual_power_per_scale.size(), 4u);
    ASSERT_EQ(report.noise_threshold_per_scale.size(), 4u);
    for (const double t : report.noise_threshold_per_scale) {
        EXPECT_GE(t, 0.0);
    }
    // At least one scale must have iterated on impulse-laden data.
    std::size_t total_iterations = 0;
    for (const std::size_t it : report.iterations_per_scale) {
        total_iterations += it;
    }
    EXPECT_GT(total_iterations, 0u);
}

TEST(WaveletDenoise, IterationsBounded) {
    const auto noisy = add_impulses(smooth_signal(512), 20.0, 19, 0.2);
    WaveletDenoiseConfig config;
    config.max_iterations = 5;
    WaveletDenoiseReport report;
    wavelet_correlation_denoise(noisy, config, &report);
    for (const std::size_t it : report.iterations_per_scale) {
        EXPECT_LE(it, 5u);
    }
}

TEST(WaveletDenoise, Validation) {
    const std::vector<double> tiny = {1.0, 2.0, 3.0};
    EXPECT_THROW(wavelet_correlation_denoise(tiny), Error);
    const auto x = smooth_signal(64);
    WaveletDenoiseConfig config;
    config.levels = 1;  // needs >= 2 scales for adjacent correlation
    EXPECT_THROW(wavelet_correlation_denoise(x, config), Error);
}

TEST(WaveletDenoise, BeatsNothingOnGaussianPlusImpulse) {
    Rng rng(23);
    auto clean = smooth_signal(400);
    auto noisy = clean;
    for (double& x : noisy) {
        x += rng.gaussian(0.0, 0.1);
    }
    noisy = add_impulses(noisy, 5.0, 29, 0.05);
    const auto denoised = wavelet_correlation_denoise(noisy);
    EXPECT_LT(rmse(denoised, clean), rmse(noisy, clean));
}

// Property: denoising never changes the series length and output stays
// within a generous envelope of the input range.
class DenoiseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DenoiseProperty, OutputBounded) {
    Rng rng(GetParam());
    std::vector<double> v;
    const std::size_t n = 32 + rng.uniform_index(300);
    for (std::size_t i = 0; i < n; ++i) {
        v.push_back(rng.uniform(0.0, 10.0));
    }
    const auto out = wavelet_correlation_denoise(v);
    ASSERT_EQ(out.size(), v.size());
    for (const double x : out) {
        EXPECT_GT(x, -20.0);
        EXPECT_LT(x, 30.0);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeries, DenoiseProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(DenoiseEdgeCases, NonFiniteInputRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        std::vector<double> v(32, 1.0);
        v[13] = bad;
        try {
            wavelet_correlation_denoise(v);
            ADD_FAILURE() << "denoiser accepted " << bad;
        } catch (const Error& e) {
            EXPECT_STREQ(e.what(),
                         "wavelet_correlation_denoise: input contains a "
                         "non-finite value");
        }
    }
}

TEST(DenoiseEdgeCases, ConstantInputReconstructsExactly) {
    // A flat series has zero detail energy at every scale, so the
    // denoiser should return it (numerically) unchanged.
    const std::vector<double> flat(64, 5.0);
    const auto corr = wavelet_correlation_denoise(flat);
    ASSERT_EQ(corr.size(), flat.size());
    for (const double x : corr) {
        EXPECT_NEAR(x, 5.0, 1e-9);
    }
}

TEST(DenoiseEdgeCases, MinimumLengthInputDenoises) {
    const std::vector<double> eight = {1.0, 2.0, 3.0, 4.0,
                                       4.0, 3.0, 2.0, 1.0};
    const auto out = wavelet_correlation_denoise(eight);
    EXPECT_EQ(out.size(), eight.size());
}

// Reference oracle: the denoiser as written before its planes moved into
// one buffer, kept arithmetic for arithmetic — its own modulo-index
// a-trous loop, one vector per plane, the allocating dsp::robust_sigma,
// and power() re-evaluated in the loop test. The production denoiser
// must match it bit for bit on every path.
std::vector<double> reference_smooth(const std::vector<double>& x,
                                     std::size_t step) {
    constexpr double kTaps[5] = {1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0,
                                 4.0 / 16.0, 1.0 / 16.0};
    const auto n = static_cast<std::ptrdiff_t>(x.size());
    const auto s = static_cast<std::ptrdiff_t>(step);
    std::vector<double> out(x.size());
    for (std::ptrdiff_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::ptrdiff_t k = 0; k < 5; ++k) {
            std::ptrdiff_t idx = i + (k - 2) * s;
            idx = ((idx % n) + n) % n;
            acc += kTaps[k] * x[static_cast<std::size_t>(idx)];
        }
        out[static_cast<std::size_t>(i)] = acc;
    }
    return out;
}

std::vector<double> reference_denoise(const std::vector<double>& input,
                                      const WaveletDenoiseConfig& config,
                                      WaveletDenoiseReport& report) {
    const std::size_t n = input.size();
    const std::size_t levels = config.levels;
    std::vector<std::vector<double>> details;
    std::vector<double> current = input;
    for (std::size_t level = 0; level < levels; ++level) {
        auto smoothed = reference_smooth(current, std::size_t{1} << level);
        std::vector<double> detail(n);
        for (std::size_t i = 0; i < n; ++i) {
            detail[i] = current[i] - smoothed[i];
        }
        details.push_back(std::move(detail));
        current = std::move(smoothed);
    }
    const std::vector<double> approx = current;

    const auto power = [](const std::vector<double>& v) {
        return simd::sum_squares(v);
    };
    report.iterations_per_scale.assign(levels, 0);
    report.residual_power_per_scale.assign(levels, 0.0);
    report.noise_threshold_per_scale.assign(levels, 0.0);
    std::vector<double> corr(n);
    for (std::size_t l = 0; l < levels; ++l) {
        auto& w_l = details[l];
        const auto& w_next = (l + 1 < levels) ? details[l + 1] : approx;
        const double sigma_hat = robust_sigma(w_l);
        const double noise_power = config.noise_threshold_scale *
                                   static_cast<double>(n) * sigma_hat *
                                   sigma_hat;
        report.noise_threshold_per_scale[l] = noise_power;
        std::size_t iterations = 0;
        while (power(w_l) > noise_power &&
               iterations < config.max_iterations) {
            ++iterations;
            for (std::size_t i = 0; i < n; ++i) {
                corr[i] = w_l[i] * w_next[i];
            }
            const double p_w = power(w_l);
            const double p_corr = power(corr);
            if (p_corr <= 0.0) {
                break;
            }
            const double scale = std::sqrt(p_w / p_corr);
            std::size_t zeroed = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (w_l[i] != 0.0 &&
                    std::abs(corr[i] * scale) >= std::abs(w_l[i])) {
                    w_l[i] = 0.0;
                    ++zeroed;
                }
            }
            if (zeroed == 0) {
                break;
            }
        }
        report.iterations_per_scale[l] = iterations;
        report.residual_power_per_scale[l] = power(w_l);
    }
    std::vector<double> out = approx;
    for (const auto& detail : details) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] += detail[i];
        }
    }
    return out;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], want[i]))
            << what << " i=" << i << ": " << got[i] << " vs " << want[i];
    }
}

/// One corpus series: flat, smooth with measurement noise, or smooth
/// with impulses on top.
std::vector<double> corpus_series(Rng& rng, std::size_t n) {
    const double level = rng.uniform(-5.0, 20.0);
    std::vector<double> v(n, level);
    const std::size_t kind = rng.uniform_index(3);
    if (kind == 0) {
        return v;  // flat: zero detail energy, zero noise floor
    }
    const double period = rng.uniform(4.0, 400.0);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] += std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
                rng.gaussian(0.0, rng.uniform(0.0, 0.3));
    }
    if (kind == 2) {
        v = add_impulses(std::move(v), rng.uniform(1.0, 30.0),
                         rng.uniform_index(1u << 30), rng.uniform(0.02, 0.3));
    }
    return v;
}

TEST(WaveletDenoise, BitIdenticalToReferenceOnSeededCorpus) {
    const bool simd_before = simd::enabled();
    Rng rng(20260);
    for (std::size_t c = 0; c < 1500; ++c) {
        WaveletDenoiseConfig config;
        config.levels = 2 + rng.uniform_index(5);  // 2..6
        config.max_iterations = 1 + rng.uniform_index(40);
        config.noise_threshold_scale = rng.uniform(0.2, 2.0);
        // One case in three keeps n within four coarsest steps, where
        // boundary taps wrap past a whole period.
        const std::size_t wrap_limit =
            std::max<std::size_t>(8, 4u << (config.levels - 1));
        const std::size_t n =
            c % 3 == 0 ? 8 + rng.uniform_index(wrap_limit - 7)
                       : 8 + rng.uniform_index(293);  // 8..300
        const auto input = corpus_series(rng, n);
        for (const bool vector_paths : {false, true}) {
            simd::set_enabled(vector_paths);
            const std::string what = "case " + std::to_string(c) +
                                     " n=" + std::to_string(n) +
                                     " simd=" + std::to_string(vector_paths);
            WaveletDenoiseReport want_report;
            const auto want = reference_denoise(input, config, want_report);
            WaveletDenoiseReport report;
            const auto got = wavelet_correlation_denoise(input, config, &report);
            expect_bitwise_equal(got, want, what);
            expect_bitwise_equal(wavelet_correlation_denoise(input, config),
                                 want, what + " (no report)");
            EXPECT_EQ(report.iterations_per_scale,
                      want_report.iterations_per_scale)
                << what;
            expect_bitwise_equal(report.residual_power_per_scale,
                                 want_report.residual_power_per_scale,
                                 what + " residual power");
            expect_bitwise_equal(report.noise_threshold_per_scale,
                                 want_report.noise_threshold_per_scale,
                                 what + " noise threshold");
        }
    }
    simd::set_enabled(simd_before);
}

}  // namespace
}  // namespace wimi::dsp
