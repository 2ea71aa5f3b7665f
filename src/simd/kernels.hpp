// Vectorized kernels for the DSP/feature hot path.
//
// Every kernel exists in two variants selected by `Path`:
//   * kScalar — the bit-exactness reference. Reproduces the exact
//     floating-point operation order of the pre-SIMD pipeline (including
//     std::abs / std::complex division where the legacy code used them).
//   * kVector — the wide implementation over vec<double, kDoubleLanes>.
//   * kAuto   — kVector when simd::enabled(), else kScalar. Production
//     call sites use kAuto; the differential suite pins both explicitly.
//
// Bit-exactness classification (enforced by tests/test_simd_kernels.cpp):
//   bit-exact (vector == scalar on every input):
//     multiply, subtract, add_in_place, divide, absolute_deviation,
//     atrous_smooth, sliding_median, biquad_cascade, zero_dominated,
//     squared_distance_columns, dot_columns, all_finite (predicate),
//     median (up to the sign of a zero that ties with its opposite)
//   tolerance-gated (vector reassociates or uses a different but
//   correctly-rounded-per-op formula; drift covered by the per-span
//   parity check in tests/test_perf):
//     sum, sum_squares, dot, squared_distance, centered_sum_squares
//     (chunked Kahan partial sums merged in index order — deterministic
//     per width, but not the sequential order), amplitude
//     (sqrt(re^2+im^2) vs std::abs's overflow-safe hypot), complex_ratio
//     (textbook formula vs libstdc++'s Smith division).
#pragma once

#include <cstddef>
#include <span>

namespace wimi::simd {

enum class Path {
    kAuto,    ///< kVector when enabled(), else kScalar.
    kScalar,  ///< Sequential reference, pre-SIMD bit-identical.
    kVector,  ///< Wide path at the compiled lane width.
};

/// Sum of x. Vector: chunked lane-partial sums with Kahan compensation
/// across chunks, merged in index order (deterministic per width).
double sum(std::span<const double> x, Path path = Path::kAuto);

/// Sum of x[i]^2, same accumulation scheme as sum().
double sum_squares(std::span<const double> x, Path path = Path::kAuto);

/// Dot product of a and b (sizes must match), same scheme as sum().
double dot(std::span<const double> a, std::span<const double> b,
           Path path = Path::kAuto);

/// Sum of (a[i]-b[i])^2 (sizes must match), same scheme as sum().
double squared_distance(std::span<const double> a, std::span<const double> b,
                        Path path = Path::kAuto);

/// Sum of (x[i]-mu)^2, same scheme as sum(). The centered-moment core of
/// dsp::variance.
double centered_sum_squares(std::span<const double> x, double mu,
                            Path path = Path::kAuto);

/// True iff every element is finite. Both paths agree on every input:
/// the vector path accumulates x*0.0 (±0 for finite x, NaN for
/// inf/NaN — the poison survives the lane sum), so the predicate is
/// exact, not tolerance-gated.
bool all_finite(std::span<const double> x, Path path = Path::kAuto);

/// out[i] = a[i] * b[i]. Bit-exact across paths.
void multiply(std::span<const double> a, std::span<const double> b,
              std::span<double> out, Path path = Path::kAuto);

/// out[i] = a[i] - b[i]. Bit-exact across paths.
void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> out, Path path = Path::kAuto);

/// out[i] += x[i]. Bit-exact across paths.
void add_in_place(std::span<double> out, std::span<const double> x,
                  Path path = Path::kAuto);

/// out[i] = a[i] / b[i]. IEEE division is correctly rounded per lane, so
/// this is bit-exact across paths.
void divide(std::span<const double> a, std::span<const double> b,
            std::span<double> out, Path path = Path::kAuto);

/// out[i] = x[i] / d. Bit-exact across paths (true division per lane,
/// not multiplication by the rounded reciprocal).
void divide(std::span<const double> x, double d, std::span<double> out,
            Path path = Path::kAuto);

/// out[i] = |x[i] - center|. The vector path clears the sign bit, which
/// matches std::abs on every value including -0.0 and NaN, so this is
/// bit-exact across paths. The deviation core of dsp::
/// median_absolute_deviation.
void absolute_deviation(std::span<const double> x, double center,
                        std::span<double> out, Path path = Path::kAuto);

/// Median of `values`: the middle order statistic, or the mean of the
/// two middle ones for an even count. `values` is the caller's scratch
/// and is reordered. Requires a non-empty, NaN-free input (the dsp order
/// statistics check both). Scalar path: std::nth_element at the middle
/// plus the largest value below it (the legacy dsp::median). Vector
/// path: pivots from a sorted sample of the candidates and lane-parallel
/// rank counts bracket the middle, and only the candidates strictly
/// inside the bracket go on to the next round; a round that keeps more
/// than half of them finishes with std::nth_element. Both paths select
/// the same order statistics, so the result is bit-exact, except that
/// when -0.0 and +0.0 tie in the middle either may be returned (as
/// std::nth_element already leaves open).
double median(std::span<double> values, Path path = Path::kAuto);

/// The impulse-extraction step of the wavelet-correlation denoiser
/// (WiMi Eq. 13): for every m with w[m] != 0 and
/// |corr[m] * scale| >= |w[m]|, set w[m] = 0.0. Returns the number of
/// coefficients zeroed. Kept lanes pass through bit-for-bit and the
/// zero/keep decision is an exact comparison, so this is bit-exact
/// across paths. Inputs must be finite (callers run all_finite first).
std::size_t zero_dominated(std::span<const double> corr, double scale,
                           std::span<double> w, Path path = Path::kAuto);

/// out[i] = |re[i] + i*im[i]|. Scalar path uses std::abs(std::complex)
/// (the legacy formula, overflow-safe); vector path uses
/// sqrt(re^2 + im^2). Tolerance-gated.
void amplitude(std::span<const double> re, std::span<const double> im,
               std::span<double> out, Path path = Path::kAuto);

/// Elementwise complex ratio (re1+i*im1)/(re2+i*im2). Scalar path uses
/// std::complex division (legacy, Smith's algorithm); vector path uses
/// the textbook formula over the squared denominator magnitude.
/// Tolerance-gated. Caller guarantees |denominator| > 0 per element.
void complex_ratio(std::span<const double> re1, std::span<const double> im1,
                   std::span<const double> re2, std::span<const double> im2,
                   std::span<double> out_re, std::span<double> out_im,
                   Path path = Path::kAuto);

/// Periodic 5-tap a-trous B3-spline smoothing pass:
///   out[i] = (x[i-2s] + 4 x[i-s] + 6 x[i] + 4 x[i+s] + x[i+2s]) / 16
/// with periodic index wrap-around and tap accumulation in tap order
/// (the legacy dsp::wavelet order). Boundary taps wrap by compare and
/// add, never by integer division. Vector path runs the interior span,
/// which needs no wrap, wide; boundaries stay scalar. Bit-exact across
/// paths.
void atrous_smooth(std::span<const double> x, std::size_t step,
                   std::span<double> out, Path path = Path::kAuto);

/// Sliding odd-window median with symmetric edge shrink (the legacy
/// dsp::median_filter contract): out[i] = median(x[i-r .. i+r]) where
/// r = min(half, i, n-1-i). Supported half widths: 1, 2, 3 (windows
/// 3/5/7) — returns false (output untouched) for anything else so the
/// caller can fall back. Vector path evaluates interior windows with
/// min/max selection networks, lane-parallel across output positions;
/// selection networks pick an input value, so results are bit-exact.
bool sliding_median(std::span<const double> x, int half,
                    std::span<double> out, Path path = Path::kAuto);

/// One biquad section in transposed direct-form II (the legacy
/// dsp::run_sections layout): y = b0*x + z1; z1' = b1*x - a1*y + z2;
/// z2' = b2*x - a2*y.
struct Biquad {
    double b0 = 0.0, b1 = 0.0, b2 = 0.0;
    double a1 = 0.0, a2 = 0.0;
    double z1 = 0.0, z2 = 0.0;
};

/// Run a cascade of biquad sections over x into y (in-place ok when
/// x.data() == y.data()). Scalar path filters section-at-a-time over the
/// whole signal (legacy order); vector path fuses the cascade
/// per-sample for one pass over memory. Both update each section's
/// state through the identical arithmetic on identical values, so the
/// cascade is bit-exact across paths. Section states are left at their
/// post-run values (callers reset between passes, as filtfilt does).
void biquad_cascade(std::span<const double> x, std::span<double> y,
                    std::span<Biquad> sections, Path path = Path::kAuto);

/// RBF/linear support-vector row evaluation over a *column-major*
/// (transposed) SV matrix: cols[j * n_rows + r] holds feature j of
/// support vector r, so lanes of consecutive r load contiguously.
/// out[r] = sum_j (cols[j*n_rows + r] - x[j])^2, accumulated in j order
/// per row — the legacy per-SV loop order — hence bit-exact across
/// paths. x.size() == dim, out.size() == n_rows,
/// cols.size() == n_rows * dim.
void squared_distance_columns(std::span<const double> cols,
                              std::size_t n_rows,
                              std::span<const double> x,
                              std::span<double> out,
                              Path path = Path::kAuto);

/// Same layout as squared_distance_columns, linear kernel:
/// out[r] = sum_j cols[j*n_rows + r] * x[j], j-ordered. Bit-exact.
void dot_columns(std::span<const double> cols, std::size_t n_rows,
                 std::span<const double> x, std::span<double> out,
                 Path path = Path::kAuto);

}  // namespace wimi::simd
