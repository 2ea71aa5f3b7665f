// Differential fuzz suite for the SIMD kernels (src/simd/kernels.hpp):
// every kernel's vector path against its scalar reference, at every size
// from empty through several lane widths past the chunk boundary,
// including denormal inputs and non-multiple-of-width tails.
//
// The contract under test (see the kernels.hpp header comment):
//   * bit-exact kernels — vector output bitwise identical to scalar on
//     every input;
//   * tolerance-gated kernels — vector within a tight relative tolerance
//     of scalar, and deterministic (same input -> bitwise same output on
//     repeated calls of the same path).
//
// On a scalar-only build (WIMI_SIMD=off or an unrecognized ISA) the
// vector path falls back to the scalar loop and every comparison holds
// trivially — the suite still runs as a smoke test of the dispatch.
#include "simd/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "simd/simd.hpp"

namespace wimi::simd {
namespace {

/// Sizes that exercise empty input, sub-lane tails, exact lane
/// multiples, and the reduce chunk boundary (kChunk = 1024 in
/// kernels.cpp) with tails on both sides.
const std::vector<std::size_t>& fuzz_sizes() {
    static const std::vector<std::size_t> sizes = [] {
        std::vector<std::size_t> s;
        for (std::size_t n = 0; n <= 40; ++n) {
            s.push_back(n);
        }
        for (const std::size_t n : {511u, 1023u, 1024u, 1025u, 2048u + 7u}) {
            s.push_back(n);
        }
        return s;
    }();
    return sizes;
}

/// Mixed-magnitude fuzz input: mostly O(1) gaussians with occasional
/// large, tiny, and denormal values so tails and reductions see the
/// full dynamic range.
std::vector<double> fuzz_vector(Rng& rng, std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) {
        switch (rng.uniform_index(8)) {
            case 0:
                x = rng.uniform(-1e12, 1e12);
                break;
            case 1:
                x = rng.uniform(-1e-300, 1e-300);  // subnormal range
                break;
            case 2:
                x = 0.0;
                break;
            default:
                x = rng.gaussian(0.0, 3.0);
        }
    }
    return v;
}

/// Strictly positive variant (denominators, amplitudes).
std::vector<double> fuzz_positive(Rng& rng, std::size_t n) {
    auto v = fuzz_vector(rng, n);
    for (double& x : v) {
        x = std::abs(x) + 1e-6;
    }
    return v;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what,
                          std::size_t n) {
    ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bitwise: EXPECT_EQ on doubles distinguishes every value pair
        // except 0.0 vs -0.0 and NaNs; the fuzz inputs produce neither
        // mismatch mode when the kernels are correct, and the exactness
        // claim is about equal *values* from identical arithmetic.
        ASSERT_EQ(a[i], b[i]) << what << " n=" << n << " i=" << i;
        ASSERT_EQ(std::signbit(a[i]), std::signbit(b[i]))
            << what << " n=" << n << " i=" << i;
    }
}

void expect_near_rel(double a, double b, double rel, const char* what,
                     std::size_t n) {
    const double tol = rel * std::max({std::abs(a), std::abs(b), 1.0});
    EXPECT_NEAR(a, b, tol) << what << " n=" << n;
}

TEST(SimdDispatch, CompiledConfigurationIsConsistent) {
    EXPECT_GE(kDoubleLanes, 1u);
    // Arch flags are scoped to the wimi_simd target, so this TU may be
    // compiled narrower than the library kernels run at — never wider
    // (WIMI_SIMD=off is a global definition, wide ISAs are library-only).
    EXPECT_GE(double_lanes(), kDoubleLanes);
    EXPECT_STRNE(effective_isa(), "");
#if WIMI_SIMD_NATIVE
    EXPECT_GT(double_lanes(), 1u);
#else
    EXPECT_EQ(double_lanes(), 1u);
    EXPECT_STREQ(effective_isa(), "scalar");
#endif
}

TEST(SimdDispatch, SetEnabledClampsToCompiledIsa) {
    const bool before = enabled();
    set_enabled(false);
    EXPECT_FALSE(enabled());
    EXPECT_STREQ(effective_isa(), "scalar");
    set_enabled(true);
#if WIMI_SIMD_NATIVE
    // May still be false if WIMI_SIMD=off came from the environment at
    // startup — set_enabled(true) after an env kill is allowed to win,
    // so check it actually re-enables.
    EXPECT_TRUE(enabled());
    EXPECT_STRNE(effective_isa(), "scalar");
#else
    EXPECT_FALSE(enabled());  // nothing to enable on a scalar build
    EXPECT_STREQ(effective_isa(), "scalar");
#endif
    set_enabled(before);
}

TEST(SimdVec, LoadStoreBroadcastLaneRoundTrip) {
    std::vector<double> in(kDoubleLanes);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        in[i] = 1.5 * static_cast<double>(i) - 2.0;
    }
    const vd v = vd::load(in.data());
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(v.lane(i), in[i]);
    }
    std::vector<double> out(kDoubleLanes, 0.0);
    v.store(out.data());
    EXPECT_EQ(out, in);

    const vd b = vd::broadcast(3.25);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(b.lane(i), 3.25);
    }
    EXPECT_EQ(vd::zero().lane(0), 0.0);
}

TEST(SimdVec, ArithmeticMatchesScalarPerLane) {
    std::vector<double> xa(kDoubleLanes);
    std::vector<double> xb(kDoubleLanes);
    Rng rng(5);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        xa[i] = rng.gaussian(0.0, 2.0);
        xb[i] = rng.gaussian(1.0, 2.0);
    }
    const vd a = vd::load(xa.data());
    const vd b = vd::load(xb.data());
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ((a + b).lane(i), xa[i] + xb[i]);
        EXPECT_EQ((a - b).lane(i), xa[i] - xb[i]);
        EXPECT_EQ((a * b).lane(i), xa[i] * xb[i]);
        EXPECT_EQ((a / b).lane(i), xa[i] / xb[i]);
        EXPECT_EQ(min(a, b).lane(i), std::min(xa[i], xb[i]));
        EXPECT_EQ(max(a, b).lane(i), std::max(xa[i], xb[i]));
    }
    // hsum_ordered: lane sum in lane index order, by definition.
    double expected = 0.0;
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        expected += xa[i];
    }
    EXPECT_EQ(a.hsum_ordered(), expected);
}

TEST(SimdVec, FloatWidthBasics) {
    std::vector<float> in(kFloatLanes);
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
        in[i] = 0.5F * static_cast<float>(i) - 1.0F;
    }
    const vec<float, kFloatLanes> v = vec<float, kFloatLanes>::load(in.data());
    const vec<float, kFloatLanes> w = v + v;
    for (std::size_t i = 0; i < kFloatLanes; ++i) {
        EXPECT_EQ(w.lane(i), in[i] + in[i]);
    }
}

// ---- bit-exact elementwise kernels -------------------------------------

TEST(SimdKernels, MultiplySubtractScaleAddBitExact) {
    Rng rng(101);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);

        multiply(a, b, scalar_out, Path::kScalar);
        multiply(a, b, vector_out, Path::kVector);
        expect_bitwise_equal(scalar_out, vector_out, "multiply", n);

        subtract(a, b, scalar_out, Path::kScalar);
        subtract(a, b, vector_out, Path::kVector);
        expect_bitwise_equal(scalar_out, vector_out, "subtract", n);

        auto acc_scalar = b;
        auto acc_vector = b;
        add_in_place(acc_scalar, a, Path::kScalar);
        add_in_place(acc_vector, a, Path::kVector);
        expect_bitwise_equal(acc_scalar, acc_vector, "add_in_place", n);
    }
}

TEST(SimdKernels, AtrousSmoothBitExactAllStepsAndSizes) {
    Rng rng(102);
    for (const std::size_t n : fuzz_sizes()) {
        if (n == 0) {
            continue;
        }
        const auto x = fuzz_vector(rng, n);
        for (const std::size_t step : {1u, 2u, 4u, 8u, 16u}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            atrous_smooth(x, step, scalar_out, Path::kScalar);
            atrous_smooth(x, step, vector_out, Path::kVector);
            expect_bitwise_equal(scalar_out, vector_out, "atrous_smooth", n);
        }
    }
}

// The test above compares the two paths with each other, and both share
// the boundary helper, so it cannot catch a wrong periodic wrap. This one
// checks both against an independent modulo-index loop, with steps up to
// and past the series length so taps wrap more than one period.
TEST(SimdKernels, AtrousSmoothMatchesModuloReference) {
    constexpr double kTaps[5] = {1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0,
                                 4.0 / 16.0, 1.0 / 16.0};
    Rng rng(112);
    for (std::size_t n = 1; n <= 64; ++n) {
        const auto x = fuzz_vector(rng, n);
        const auto sn = static_cast<std::ptrdiff_t>(n);
        for (const std::size_t step : {1u, 2u, 4u, 8u, 16u, 32u}) {
            std::vector<double> want(n);
            for (std::ptrdiff_t i = 0; i < sn; ++i) {
                double acc = 0.0;
                for (std::ptrdiff_t k = 0; k < 5; ++k) {
                    std::ptrdiff_t idx =
                        i + (k - 2) * static_cast<std::ptrdiff_t>(step);
                    idx = ((idx % sn) + sn) % sn;
                    acc += kTaps[k] * x[static_cast<std::size_t>(idx)];
                }
                want[static_cast<std::size_t>(i)] = acc;
            }
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            atrous_smooth(x, step, scalar_out, Path::kScalar);
            atrous_smooth(x, step, vector_out, Path::kVector);
            expect_bitwise_equal(want, scalar_out, "atrous_smooth scalar", n);
            expect_bitwise_equal(want, vector_out, "atrous_smooth vector", n);
        }
    }
}

TEST(SimdKernels, BiquadCascadeBitExact) {
    Rng rng(103);
    // A plausible low-pass-ish two-section cascade plus a section with
    // larger feedback, to push state arithmetic around.
    const std::vector<Biquad> prototype = {
        {0.2, 0.4, 0.2, -0.5, 0.2, 0.0, 0.0},
        {0.9, -1.2, 0.4, -1.1, 0.35, 0.0, 0.0},
    };
    for (const std::size_t n : fuzz_sizes()) {
        const auto x = fuzz_vector(rng, n);
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);
        auto scalar_state = prototype;
        auto vector_state = prototype;
        biquad_cascade(x, scalar_out, scalar_state, Path::kScalar);
        biquad_cascade(x, vector_out, vector_state, Path::kVector);
        expect_bitwise_equal(scalar_out, vector_out, "biquad_cascade", n);
        // Post-run section states must agree too — filtfilt reuses them
        // only after a reset, but the contract says identical arithmetic.
        for (std::size_t s = 0; s < prototype.size(); ++s) {
            EXPECT_EQ(scalar_state[s].z1, vector_state[s].z1);
            EXPECT_EQ(scalar_state[s].z2, vector_state[s].z2);
        }
    }
}

TEST(SimdKernels, BiquadCascadeInPlaceMatchesOutOfPlace) {
    Rng rng(104);
    const std::vector<Biquad> prototype = {
        {0.3, 0.1, 0.05, -0.4, 0.1, 0.0, 0.0}};
    const auto x = fuzz_vector(rng, 257);
    std::vector<double> reference(x.size());
    auto ref_state = prototype;
    biquad_cascade(x, reference, ref_state, Path::kVector);

    auto in_place = x;
    auto state = prototype;
    biquad_cascade(in_place, in_place, state, Path::kVector);
    expect_bitwise_equal(reference, in_place, "biquad_in_place", x.size());
}

TEST(SimdKernels, SlidingMedianBitExactAgainstSortReference) {
    Rng rng(105);
    for (const std::size_t n : fuzz_sizes()) {
        if (n == 0) {
            continue;
        }
        auto x = fuzz_vector(rng, n);
        // The exactness argument assumes no -0.0 (a -0.0/+0.0 tie can
        // legally resolve to either bit pattern); the pipeline filters
        // amplitudes, which are nonnegative.
        for (double& v : x) {
            if (v == 0.0) {
                v = 0.0;
            }
        }
        for (const int half : {1, 2, 3}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            ASSERT_TRUE(sliding_median(x, half, scalar_out, Path::kScalar));
            ASSERT_TRUE(sliding_median(x, half, vector_out, Path::kVector));
            expect_bitwise_equal(scalar_out, vector_out, "sliding_median", n);

            // Independent reference: copy, sort, middle (the legacy
            // dsp::median_filter inner loop).
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = std::min(
                    {static_cast<std::size_t>(half), i, n - 1 - i});
                std::vector<double> window(x.begin() + (i - r),
                                           x.begin() + (i + r + 1));
                std::sort(window.begin(), window.end());
                ASSERT_EQ(scalar_out[i], window[window.size() / 2])
                    << "n=" << n << " half=" << half << " i=" << i;
            }
        }
    }
}

TEST(SimdKernels, SlidingMedianExhaustiveSmallPermutations) {
    // Every window the med3/med5 networks can see, including duplicates:
    // all value tuples over a small alphabet, checked against sort.
    for (const int half : {1, 2}) {
        const std::size_t w = 2 * static_cast<std::size_t>(half) + 1;
        const std::size_t alphabet = 3;
        std::size_t combos = 1;
        for (std::size_t i = 0; i < w; ++i) {
            combos *= alphabet;
        }
        for (std::size_t code = 0; code < combos; ++code) {
            std::vector<double> x(w);
            std::size_t c = code;
            for (std::size_t i = 0; i < w; ++i) {
                x[i] = static_cast<double>(c % alphabet);
                c /= alphabet;
            }
            std::vector<double> out(w);
            ASSERT_TRUE(sliding_median(x, half, out, Path::kVector));
            auto sorted = x;
            std::sort(sorted.begin(), sorted.end());
            // Center output has the full window.
            EXPECT_EQ(out[w / 2], sorted[w / 2]) << "code=" << code;
        }
    }
}

TEST(SimdKernels, SlidingMedianRejectsUnsupportedHalf) {
    const std::vector<double> x(9, 1.0);
    std::vector<double> out(9, -7.0);
    EXPECT_FALSE(sliding_median(x, 0, out));
    EXPECT_FALSE(sliding_median(x, 4, out));
    EXPECT_FALSE(sliding_median(x, -1, out));
    for (const double v : out) {
        EXPECT_EQ(v, -7.0);  // untouched on rejection
    }
}

TEST(SimdKernels, ColumnKernelsBitExact) {
    Rng rng(106);
    for (const std::size_t n_rows : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 129u}) {
        for (const std::size_t dim : {1u, 4u, 9u}) {
            const auto cols = fuzz_vector(rng, n_rows * dim);
            const auto x = fuzz_vector(rng, dim);
            std::vector<double> scalar_out(n_rows);
            std::vector<double> vector_out(n_rows);

            squared_distance_columns(cols, n_rows, x, scalar_out,
                                     Path::kScalar);
            squared_distance_columns(cols, n_rows, x, vector_out,
                                     Path::kVector);
            expect_bitwise_equal(scalar_out, vector_out,
                                 "squared_distance_columns", n_rows);

            dot_columns(cols, n_rows, x, scalar_out, Path::kScalar);
            dot_columns(cols, n_rows, x, vector_out, Path::kVector);
            expect_bitwise_equal(scalar_out, vector_out, "dot_columns",
                                 n_rows);

            // Row r of the column kernel == the span kernel on row r's
            // gathered features (same j-ordered accumulation).
            std::vector<double> row(dim);
            for (std::size_t j = 0; j < dim; ++j) {
                row[j] = cols[j * n_rows + 0];
            }
            double expected = 0.0;
            for (std::size_t j = 0; j < dim; ++j) {
                const double d = row[j] - x[j];
                expected += d * d;
            }
            squared_distance_columns(cols, n_rows, x, scalar_out,
                                     Path::kScalar);
            EXPECT_EQ(scalar_out[0], expected);
        }
    }
}

TEST(SimdVec, AbsClearsSignBitPerLane) {
    std::vector<double> in(kDoubleLanes);
    Rng rng(112);
    for (double& x : in) {
        x = rng.gaussian(0.0, 3.0);
    }
    in[0] = -0.0;
    const vd a = abs(vd::load(in.data()));
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(a.lane(i), std::abs(in[i]));
        EXPECT_FALSE(std::signbit(a.lane(i))) << "lane " << i;
    }
}

TEST(SimdVec, BlendGeSelectsPerLane) {
    std::vector<double> xa(kDoubleLanes);
    std::vector<double> xb(kDoubleLanes);
    Rng rng(113);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        xa[i] = rng.gaussian(0.0, 1.0);
        xb[i] = rng.gaussian(0.0, 1.0);
    }
    xa[0] = 2.0;
    xb[0] = 2.0;  // equality selects t
    const vd t = vd::broadcast(1.0);
    const vd f = vd::broadcast(-1.0);
    const vd r = blend_ge(vd::load(xa.data()), vd::load(xb.data()), t, f);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(r.lane(i), xa[i] >= xb[i] ? 1.0 : -1.0) << "lane " << i;
    }
    // NaN comparisons are false -> f, and selected lanes pass through
    // bit-for-bit (here: a negative zero from the f operand).
    const vd nan_a = vd::broadcast(std::nan(""));
    const vd neg_zero = vd::broadcast(-0.0);
    const vd picked = blend_ge(nan_a, vd::zero(), t, neg_zero);
    EXPECT_EQ(picked.lane(0), 0.0);
    EXPECT_TRUE(std::signbit(picked.lane(0)));
}

TEST(SimdKernels, DivideBitExact) {
    Rng rng(114);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_positive(rng, n);
        const double d = rng.uniform(0.25, 4.0) *
                         (rng.uniform_index(2) == 0 ? 1.0 : -1.0);
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);

        divide(a, b, scalar_out, Path::kScalar);
        divide(a, b, vector_out, Path::kVector);
        expect_bitwise_equal(scalar_out, vector_out, "divide", n);

        divide(a, d, scalar_out, Path::kScalar);
        divide(a, d, vector_out, Path::kVector);
        expect_bitwise_equal(scalar_out, vector_out, "divide_scalar", n);
        // True division, not multiplication by the rounded reciprocal.
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scalar_out[i], a[i] / d);
        }
    }
}

TEST(SimdKernels, AbsoluteDeviationBitExact) {
    Rng rng(115);
    for (const std::size_t n : fuzz_sizes()) {
        auto x = fuzz_vector(rng, n);
        if (n > 1) {
            x[0] = -0.0;  // |(-0) - 0| must be +0 on both paths
        }
        for (const double center : {0.0, rng.gaussian(0.0, 5.0)}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            absolute_deviation(x, center, scalar_out, Path::kScalar);
            absolute_deviation(x, center, vector_out, Path::kVector);
            expect_bitwise_equal(scalar_out, vector_out,
                                 "absolute_deviation", n);
            for (const double v : scalar_out) {
                EXPECT_FALSE(std::signbit(v));
            }
        }
    }
}

/// The median by full sort: the middle value, or the mean of the two
/// middle values for an even count.
double sorted_median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Both paths of median() on their own copies of `x`, against the sort
/// reference: equal values, and equal bits whenever no zero of the
/// other sign could tie at the middle.
void expect_median_paths_agree(const std::vector<double>& x,
                               const char* what) {
    auto scalar_scratch = x;
    auto vector_scratch = x;
    const double scalar = median(scalar_scratch, Path::kScalar);
    const double vector = median(vector_scratch, Path::kVector);
    const double reference = sorted_median(x);
    ASSERT_EQ(scalar, reference) << what << " n=" << x.size();
    ASSERT_EQ(vector, reference) << what << " n=" << x.size();
    const bool mixed_zeros =
        std::any_of(x.begin(), x.end(),
                    [](double v) { return v == 0.0 && std::signbit(v); }) &&
        std::any_of(x.begin(), x.end(),
                    [](double v) { return v == 0.0 && !std::signbit(v); });
    if (!mixed_zeros) {
        ASSERT_EQ(std::signbit(scalar), std::signbit(vector))
            << what << " n=" << x.size();
    }
}

TEST(SimdKernels, MedianMatchesSortReferenceOnBothPaths) {
    Rng rng(131);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 300; ++n) {
        sizes.push_back(n);
    }
    for (const std::size_t n : {511u, 512u, 1023u, 1024u, 1025u, 4099u}) {
        sizes.push_back(n);
    }
    for (const std::size_t n : sizes) {
        auto wide = fuzz_vector(rng, n);
        expect_median_paths_agree(wide, "fuzz");
        // Few distinct values: ties at, above and below the middle.
        std::vector<double> ties(n);
        for (double& v : ties) {
            v = static_cast<double>(rng.uniform_index(4));
        }
        expect_median_paths_agree(ties, "ties");
        expect_median_paths_agree(std::vector<double>(n, 2.5), "flat");
        std::vector<double> ramp(n);
        for (std::size_t i = 0; i < n; ++i) {
            ramp[i] = static_cast<double>(i % 7 == 0 ? n - i : i);
        }
        expect_median_paths_agree(ramp, "ramp");
        std::sort(ramp.begin(), ramp.end());
        expect_median_paths_agree(ramp, "ascending");
        std::reverse(ramp.begin(), ramp.end());
        expect_median_paths_agree(ramp, "descending");
        // Noise with a few impulses, the wavelet planes' shape.
        std::vector<double> spiky(n);
        for (double& v : spiky) {
            v = rng.gaussian(0.0, 0.1);
            if (rng.uniform_index(20) == 0) {
                v += rng.uniform_index(2) == 0 ? 40.0 : -40.0;
            }
        }
        expect_median_paths_agree(spiky, "spiky");
    }
}

TEST(SimdKernels, MedianExhaustiveSmallTuples) {
    // Every tuple over a three-value alphabet up to length 8, so each
    // tie pattern around the middle rank occurs.
    for (std::size_t n = 1; n <= 8; ++n) {
        std::size_t combos = 1;
        for (std::size_t i = 0; i < n; ++i) {
            combos *= 3;
        }
        for (std::size_t code = 0; code < combos; ++code) {
            std::vector<double> x(n);
            std::size_t c = code;
            for (std::size_t i = 0; i < n; ++i) {
                x[i] = static_cast<double>(c % 3);
                c /= 3;
            }
            expect_median_paths_agree(x, "tuple");
        }
    }
}

TEST(SimdKernels, MedianWhenTheSampleMissesTheMiddle) {
    // The vector path samples every (n / 16)-th candidate. Put the
    // largest values exactly there, so the first bracket keeps far more
    // than half of the candidates and the round hands over to
    // std::nth_element; and the mirror image with the smallest values.
    for (const std::size_t n : {64u, 100u, 256u, 1000u}) {
        const std::size_t stride = n / 16;
        for (const double sign : {1.0, -1.0}) {
            std::vector<double> x(n);
            for (std::size_t i = 0; i < n; ++i) {
                x[i] = sign * (i % stride == 0 && i / stride < 16
                                   ? 1000.0 + static_cast<double>(i)
                                   : static_cast<double>((i * 37) % n));
            }
            expect_median_paths_agree(x, "adversarial");
        }
    }
}

TEST(SimdKernels, MedianSignedZeroTiesAgreeInValue) {
    Rng rng(133);
    for (std::size_t n = 1; n <= 80; ++n) {
        std::vector<double> x(n);
        for (double& v : x) {
            const std::size_t pick = rng.uniform_index(4);
            v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.gaussian(0.0, 1.0);
        }
        expect_median_paths_agree(x, "signed zeros");
    }
}

TEST(SimdKernels, AllFiniteAgreesWithIsfinite) {
    Rng rng(116);
    const double poisons[] = {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::nan("")};
    for (const std::size_t n : fuzz_sizes()) {
        const auto clean = fuzz_vector(rng, n);
        EXPECT_TRUE(all_finite(clean, Path::kScalar)) << "n=" << n;
        EXPECT_TRUE(all_finite(clean, Path::kVector)) << "n=" << n;
        if (n == 0) {
            continue;
        }
        // Poison every position in turn (covers lane body and tail).
        for (std::size_t at = 0; at < n; ++at) {
            auto bad = clean;
            bad[at] = poisons[at % 3];
            EXPECT_FALSE(all_finite(bad, Path::kScalar))
                << "n=" << n << " at=" << at;
            EXPECT_FALSE(all_finite(bad, Path::kVector))
                << "n=" << n << " at=" << at;
        }
    }
    // Denormals are finite.
    const std::vector<double> denorm(9, 5e-324);
    EXPECT_TRUE(all_finite(denorm, Path::kVector));
}

TEST(SimdKernels, ZeroDominatedBitExactWithMatchingCounts) {
    Rng rng(117);
    for (const std::size_t n : fuzz_sizes()) {
        const auto corr = fuzz_vector(rng, n);
        auto w = fuzz_vector(rng, n);
        if (n > 3) {
            w[1] = 0.0;   // already-zero lanes stay untouched
            w[2] = -0.0;  // and keep their sign bit
        }
        // Scales spanning "zeroes almost nothing" to "zeroes nearly all".
        for (const double scale : {0.0, 1e-6, 1.0, 1e6}) {
            auto w_scalar = w;
            auto w_vector = w;
            const std::size_t c_scalar =
                zero_dominated(corr, scale, w_scalar, Path::kScalar);
            const std::size_t c_vector =
                zero_dominated(corr, scale, w_vector, Path::kVector);
            EXPECT_EQ(c_scalar, c_vector) << "n=" << n << " scale=" << scale;
            expect_bitwise_equal(w_scalar, w_vector, "zero_dominated", n);

            // Independent reference: the legacy Eq. 13 loop.
            auto w_ref = w;
            std::size_t c_ref = 0;
            for (std::size_t m = 0; m < n; ++m) {
                if (w_ref[m] != 0.0 &&
                    std::abs(corr[m] * scale) >= std::abs(w_ref[m])) {
                    w_ref[m] = 0.0;
                    ++c_ref;
                }
            }
            EXPECT_EQ(c_scalar, c_ref);
            expect_bitwise_equal(w_scalar, w_ref, "zero_dominated_ref", n);
        }
    }
}

// ---- tolerance-gated reductions ----------------------------------------

TEST(SimdKernels, ReductionsWithinToleranceAndDeterministic) {
    Rng rng(107);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);

        expect_near_rel(sum(a, Path::kScalar), sum(a, Path::kVector), 1e-12,
                        "sum", n);
        expect_near_rel(sum_squares(a, Path::kScalar),
                        sum_squares(a, Path::kVector), 1e-12, "sum_squares",
                        n);
        expect_near_rel(dot(a, b, Path::kScalar), dot(a, b, Path::kVector),
                        1e-10, "dot", n);
        expect_near_rel(squared_distance(a, b, Path::kScalar),
                        squared_distance(a, b, Path::kVector), 1e-12,
                        "squared_distance", n);

        const double mu_a = n > 0 ? sum(a, Path::kScalar) /
                                        static_cast<double>(n)
                                  : 0.0;
        expect_near_rel(centered_sum_squares(a, mu_a, Path::kScalar),
                        centered_sum_squares(a, mu_a, Path::kVector), 1e-12,
                        "centered_sum_squares", n);

        // Determinism: the vector path is chunked + Kahan-merged in a
        // fixed order, so repeated calls are bitwise identical.
        EXPECT_EQ(sum(a, Path::kVector), sum(a, Path::kVector));
        EXPECT_EQ(dot(a, b, Path::kVector), dot(a, b, Path::kVector));
        EXPECT_EQ(centered_sum_squares(a, mu_a, Path::kVector),
                  centered_sum_squares(a, mu_a, Path::kVector));
    }
}

TEST(SimdKernels, ScalarSumMatchesSequentialLoop) {
    // The scalar path is the pre-SIMD reference: a plain left-to-right
    // accumulation, bit for bit.
    Rng rng(108);
    const auto a = fuzz_vector(rng, 1500);
    double expected = 0.0;
    for (const double v : a) {
        expected += v;
    }
    EXPECT_EQ(sum(a, Path::kScalar), expected);
}

TEST(SimdKernels, AmplitudeWithinToleranceIncludingDenormals) {
    Rng rng(109);
    for (const std::size_t n : fuzz_sizes()) {
        auto re = fuzz_vector(rng, n);
        auto im = fuzz_vector(rng, n);
        if (n > 2) {
            re[0] = 5e-324;  // smallest denormal
            im[0] = 0.0;
            re[1] = 1e-308;
            im[1] = -1e-308;
        }
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);
        amplitude(re, im, scalar_out, Path::kScalar);
        amplitude(re, im, vector_out, Path::kVector);
        for (std::size_t i = 0; i < n; ++i) {
            // The naive sqrt(re^2+im^2) underflows to 0 wherever the
            // squares round below the smallest subnormal — components up
            // to ~2e-162 — while std::abs's hypot recovers the true
            // magnitude. Absolute slack covers that whole region (~1e300
            // below any quantized CSI amplitude); relative agreement is
            // last-ulp in the normal range.
            const double tol =
                1e-13 * std::abs(scalar_out[i]) + 1e-160;
            EXPECT_NEAR(scalar_out[i], vector_out[i], tol)
                << "amplitude n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, ComplexRatioWithinTolerance) {
    Rng rng(110);
    for (const std::size_t n : fuzz_sizes()) {
        const auto re1 = fuzz_vector(rng, n);
        const auto im1 = fuzz_vector(rng, n);
        const auto re2 = fuzz_positive(rng, n);
        const auto im2 = fuzz_vector(rng, n);
        std::vector<double> sr(n);
        std::vector<double> si(n);
        std::vector<double> vr(n);
        std::vector<double> vi(n);
        complex_ratio(re1, im1, re2, im2, sr, si, Path::kScalar);
        complex_ratio(re1, im1, re2, im2, vr, vi, Path::kVector);
        for (std::size_t i = 0; i < n; ++i) {
            const double mag =
                std::max({std::abs(sr[i]), std::abs(si[i]), 1e-30});
            EXPECT_NEAR(sr[i], vr[i], 1e-12 * mag) << "n=" << n << " i=" << i;
            EXPECT_NEAR(si[i], vi[i], 1e-12 * mag) << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, AutoPathFollowsEnabledFlag) {
    Rng rng(111);
    const auto a = fuzz_vector(rng, 777);
    const bool before = enabled();

    set_enabled(false);
    EXPECT_EQ(sum(a, Path::kAuto), sum(a, Path::kScalar));
    set_enabled(true);
    if (enabled()) {
        EXPECT_EQ(sum(a, Path::kAuto), sum(a, Path::kVector));
    }
    set_enabled(before);
}

}  // namespace
}  // namespace wimi::simd
