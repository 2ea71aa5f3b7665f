#include "dsp/filters.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {
namespace {

void check_window(std::span<const double> input, std::size_t window) {
    ensure(!input.empty(), "filter: input must not be empty");
    ensure(window >= 1, "filter: window must be >= 1");
    ensure(window % 2 == 1, "filter: window must be odd");
}

/// std::sort over a window containing NaN is undefined behavior, so the
/// order-statistic filter validates its whole input up front.
void check_finite(std::span<const double> input, const char* what) {
    for (const double v : input) {
        if (!std::isfinite(v)) {
            fail(std::string(what) + ": input contains a non-finite value");
        }
    }
}

std::vector<double> run_sections(const std::vector<Biquad>& sections,
                                 std::span<const double> input) {
    // The simd kernel fuses the cascade per sample (one memory pass
    // instead of one per section) when the vector paths are enabled;
    // either way the arithmetic per (sample, section) is the legacy
    // transposed-direct-form-II update, bit-exact across paths.
    std::vector<simd::Biquad> state;
    state.reserve(sections.size());
    for (const auto& s : sections) {
        state.push_back({s.b0, s.b1, s.b2, s.a1, s.a2, 0.0, 0.0});
    }
    std::vector<double> data(input.begin(), input.end());
    simd::biquad_cascade(data, data, state);
    return data;
}

}  // namespace

std::vector<double> median_filter(std::span<const double> input,
                                  std::size_t window) {
    check_window(input, window);
    check_finite(input, "median_filter");
    const std::size_t half = window / 2;
    const std::size_t n = input.size();
    std::vector<double> out(n);
    // Windows up to 7 (the pipeline's sizes) go through the simd kernel:
    // lane-parallel min/max selection networks over the interior, the
    // legacy sort at the shrinking edges. Selection picks a window value,
    // so the result matches sort-and-take-middle exactly.
    if (simd::sliding_median(input, static_cast<int>(half), out)) {
        return out;
    }
    std::vector<double> buffer;
    buffer.reserve(window);
    for (std::size_t i = 0; i < n; ++i) {
        // Symmetric shrink: the effective half-width is limited by the
        // distance to the nearest edge, keeping the window centered.
        const std::size_t reach =
            std::min({half, i, n - 1 - i});
        buffer.assign(input.begin() + static_cast<std::ptrdiff_t>(i - reach),
                      input.begin() + static_cast<std::ptrdiff_t>(i + reach + 1));
        std::sort(buffer.begin(), buffer.end());
        out[i] = buffer[buffer.size() / 2];
    }
    return out;
}

std::vector<double> sliding_mean_filter(std::span<const double> input,
                                        std::size_t window) {
    check_window(input, window);
    const std::size_t half = window / 2;
    const std::size_t n = input.size();
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t reach = std::min({half, i, n - 1 - i});
        double sum = 0.0;
        for (std::size_t j = i - reach; j <= i + reach; ++j) {
            sum += input[j];
        }
        out[i] = sum / static_cast<double>(2 * reach + 1);
    }
    return out;
}

ButterworthLowPass::ButterworthLowPass(std::size_t order, double cutoff_hz,
                                       double sample_rate_hz) {
    ensure(order >= 1, "ButterworthLowPass: order must be >= 1");
    ensure(sample_rate_hz > 0.0,
           "ButterworthLowPass: sample rate must be positive");
    ensure(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
           "ButterworthLowPass: cutoff must be in (0, Nyquist)");

    // Pre-warped analog cutoff so the digital response hits -3 dB exactly
    // at cutoff_hz after the bilinear transform.
    const double wc =
        2.0 * sample_rate_hz * std::tan(kPi * cutoff_hz / sample_rate_hz);
    const double k = 2.0 * sample_rate_hz;  // bilinear transform constant
    const double k2 = k * k;
    const double wc2 = wc * wc;

    const std::size_t pairs = order / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
        // Conjugate pole pair of the analog Butterworth prototype:
        // s^2 + 2*sin(theta)*wc*s + wc^2 with theta measured from the
        // imaginary axis.
        const double theta =
            kPi * (2.0 * static_cast<double>(i) + 1.0) /
            (2.0 * static_cast<double>(order));
        const double a1_analog = 2.0 * wc * std::sin(theta);
        const double a0d = k2 + a1_analog * k + wc2;
        Biquad s;
        s.b0 = wc2 / a0d;
        s.b1 = 2.0 * wc2 / a0d;
        s.b2 = wc2 / a0d;
        s.a1 = 2.0 * (wc2 - k2) / a0d;
        s.a2 = (k2 - a1_analog * k + wc2) / a0d;
        sections_.push_back(s);
    }
    if (order % 2 == 1) {
        // Real pole: H(s) = wc / (s + wc), expressed as a degenerate biquad.
        const double a0d = k + wc;
        Biquad s;
        s.b0 = wc / a0d;
        s.b1 = wc / a0d;
        s.b2 = 0.0;
        s.a1 = (wc - k) / a0d;
        s.a2 = 0.0;
        sections_.push_back(s);
    }
}

std::vector<double> ButterworthLowPass::filter(
    std::span<const double> input) const {
    ensure(!input.empty(), "ButterworthLowPass::filter: empty input");
    return run_sections(sections_, input);
}

std::vector<double> ButterworthLowPass::filtfilt(
    std::span<const double> input) const {
    ensure(!input.empty(), "ButterworthLowPass::filtfilt: empty input");
    const std::size_t n = input.size();
    // Reflective padding long enough for the transients of all sections.
    const std::size_t pad = std::min(n - 1, 3 * sections_.size() * 2 + 3);
    std::vector<double> padded;
    padded.reserve(n + 2 * pad);
    for (std::size_t i = pad; i >= 1; --i) {
        padded.push_back(2.0 * input[0] - input[i]);
    }
    padded.insert(padded.end(), input.begin(), input.end());
    for (std::size_t i = 1; i <= pad; ++i) {
        padded.push_back(2.0 * input[n - 1] - input[n - 1 - i]);
    }

    auto forward = run_sections(sections_, padded);
    std::reverse(forward.begin(), forward.end());
    auto backward = run_sections(sections_, forward);
    std::reverse(backward.begin(), backward.end());

    return {backward.begin() + static_cast<std::ptrdiff_t>(pad),
            backward.begin() + static_cast<std::ptrdiff_t>(pad + n)};
}

}  // namespace wimi::dsp
