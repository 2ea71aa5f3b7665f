#include "dsp/wavelet.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {
namespace {

// Orthonormal scaling (low-pass) filters; high-pass is derived by the
// quadrature-mirror relation g[n] = (-1)^n h[L-1-n].
constexpr std::array<double, 2> kHaarFilter = {
    0.7071067811865476, 0.7071067811865476};

constexpr std::array<double, 4> kDb2Filter = {
    0.48296291314469025, 0.8365163037378079, 0.22414386804185735,
    -0.12940952255092145};

constexpr std::array<double, 8> kDb4Filter = {
    0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
    -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
    0.032883011666982945, -0.010597401784997278};

std::vector<double> highpass_from(std::span<const double> h) {
    std::vector<double> g(h.size());
    for (std::size_t n = 0; n < h.size(); ++n) {
        const double sign = (n % 2 == 0) ? 1.0 : -1.0;
        g[n] = sign * h[h.size() - 1 - n];
    }
    return g;
}

// One periodized analysis step: input length must be even.
void dwt_step(std::span<const double> x, std::span<const double> h,
              std::span<const double> g, std::vector<double>& approx,
              std::vector<double>& detail) {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    approx.assign(half, 0.0);
    detail.assign(half, 0.0);
    // The window 2*i + k only wraps for the last few output positions
    // (2*i + taps - 1 >= n); everything before that reads x directly,
    // sparing the modulo on the hot interior.
    const std::size_t taps = h.size();
    const std::size_t direct =
        std::min(half, (n >= taps) ? (n - taps) / 2 + 1 : 0);
    for (std::size_t i = 0; i < direct; ++i) {
        double a = 0.0;
        double d = 0.0;
        const double* w = x.data() + 2 * i;
        for (std::size_t k = 0; k < taps; ++k) {
            const double sample = w[k];
            a += h[k] * sample;
            d += g[k] * sample;
        }
        approx[i] = a;
        detail[i] = d;
    }
    for (std::size_t i = direct; i < half; ++i) {
        double a = 0.0;
        double d = 0.0;
        for (std::size_t k = 0; k < taps; ++k) {
            const double sample = x[(2 * i + k) % n];
            a += h[k] * sample;
            d += g[k] * sample;
        }
        approx[i] = a;
        detail[i] = d;
    }
}

// One periodized synthesis step.
std::vector<double> idwt_step(std::span<const double> approx,
                              std::span<const double> detail,
                              std::span<const double> h,
                              std::span<const double> g) {
    const std::size_t half = approx.size();
    const std::size_t n = 2 * half;
    std::vector<double> x(n, 0.0);
    for (std::size_t i = 0; i < half; ++i) {
        for (std::size_t k = 0; k < h.size(); ++k) {
            x[(2 * i + k) % n] += h[k] * approx[i] + g[k] * detail[i];
        }
    }
    return x;
}

}  // namespace

std::span<const double> scaling_filter(Wavelet wavelet) {
    switch (wavelet) {
        case Wavelet::kHaar:
            return kHaarFilter;
        case Wavelet::kDb2:
            return kDb2Filter;
        case Wavelet::kDb4:
            return kDb4Filter;
    }
    fail("scaling_filter: unknown wavelet");
}

std::size_t max_dwt_levels(std::size_t n, Wavelet wavelet) {
    const std::size_t taps = scaling_filter(wavelet).size();
    std::size_t levels = 0;
    while (n >= taps && n % 2 == 0) {
        n /= 2;
        ++levels;
    }
    return levels;
}

DwtDecomposition dwt(std::span<const double> input, Wavelet wavelet,
                     std::size_t levels) {
    ensure(!input.empty(), "dwt: input must not be empty");
    ensure(levels >= 1, "dwt: levels must be >= 1");

    DwtDecomposition out;
    out.original_length = input.size();
    out.wavelet = wavelet;

    // Pad odd lengths by reflecting the last sample so every analysis step
    // sees an even length; idwt trims back to original_length.
    std::vector<double> current(input.begin(), input.end());
    if (current.size() % 2 == 1) {
        current.push_back(current.back());
    }
    ensure(levels <= max_dwt_levels(current.size(), wavelet),
           "dwt: too many levels for this input length");

    const auto h = scaling_filter(wavelet);
    const auto g = highpass_from(h);
    for (std::size_t level = 0; level < levels; ++level) {
        std::vector<double> approx;
        std::vector<double> detail;
        dwt_step(current, h, g, approx, detail);
        out.details.push_back(std::move(detail));
        current = std::move(approx);
    }
    out.approx = std::move(current);
    return out;
}

std::vector<double> idwt(const DwtDecomposition& decomposition) {
    ensure(!decomposition.details.empty(),
           "idwt: decomposition has no detail levels");
    const auto h = scaling_filter(decomposition.wavelet);
    const auto g = highpass_from(h);

    std::vector<double> current = decomposition.approx;
    for (std::size_t level = decomposition.details.size(); level > 0;
         --level) {
        const auto& detail = decomposition.details[level - 1];
        ensure(detail.size() == current.size(),
               "idwt: inconsistent level sizes");
        current = idwt_step(current, detail, h, g);
    }
    current.resize(decomposition.original_length);
    return current;
}

AtrousDecomposition atrous_decompose(std::span<const double> input,
                                     std::size_t levels) {
    ensure(!input.empty(), "atrous_decompose: input must not be empty");
    ensure(levels >= 1, "atrous_decompose: levels must be >= 1");

    // Cubic B3-spline smoothing per level (offsets scaled by 2^l) and the
    // detail-plane subtraction both run through the simd kernels; the
    // atrous_smooth kernel owns the tap weights and the periodic
    // boundary, and is bit-exact between its scalar and vector paths.
    // Level l smooths its input into plane l + 1 and leaves the detail
    // (input minus smoothed) in plane l, so each smoothed plane is the
    // next level's input in place and the last one is the approximation.
    const std::size_t n = input.size();
    AtrousDecomposition out{levels, n,
                            std::vector<double>((levels + 1) * n)};
    std::span<const double> current = input;
    for (std::size_t level = 0; level < levels; ++level) {
        const std::size_t step = static_cast<std::size_t>(1) << level;
        const std::span<double> smoothed = out.plane(level + 1);
        simd::atrous_smooth(current, step, smoothed);
        simd::subtract(current, smoothed, out.plane(level));
        current = smoothed;
    }
    return out;
}

void atrous_reconstruct(const AtrousDecomposition& d, std::span<double> out) {
    ensure(d.length > 0, "atrous_reconstruct: empty decomposition");
    ensure(d.planes.size() == (d.levels + 1) * d.length,
           "atrous_reconstruct: inconsistent plane sizes");
    ensure(out.size() == d.length,
           "atrous_reconstruct: output length differs from the planes");
    const auto approx = d.plane(d.levels);
    std::copy(approx.begin(), approx.end(), out.begin());
    for (std::size_t level = 0; level < d.levels; ++level) {
        simd::add_in_place(out, d.plane(level));
    }
}

}  // namespace wimi::dsp
