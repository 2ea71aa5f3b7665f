#include "simd/kernels.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <utility>

#include "simd/simd.hpp"

namespace wimi::simd {
namespace {

constexpr std::size_t kLanes = kDoubleLanes;

/// Chunk length for the Kahan-compensated partial-sum merge (à la ROOT's
/// FitUtil chunked reduction): within a chunk, whole-vector accumulators
/// plus a sequential tail; across chunks, Kahan compensation applied in
/// index order. Deterministic for a given compiled lane width.
constexpr std::size_t kChunk = 1024;

bool use_vector(Path path) {
    switch (path) {
        case Path::kScalar: return false;
        case Path::kVector: return true;
        case Path::kAuto: break;
    }
    return enabled();
}

/// vterm(i) yields the vec of terms starting at index i; sterm(i) the
/// scalar term at i. Chunked Kahan merge as described in kernels.hpp.
template <typename VTerm, typename STerm>
double reduce_vector(std::size_t n, VTerm&& vterm, STerm&& sterm) {
    double total = 0.0;
    double comp = 0.0;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t end = std::min(n, i + kChunk);
        const std::size_t body = i + ((end - i) / kLanes) * kLanes;
        vd acc = vd::zero();
        for (; i < body; i += kLanes) {
            acc = acc + vterm(i);
        }
        double chunk = acc.hsum_ordered();
        for (; i < end; ++i) {
            chunk += sterm(i);
        }
        const double y = chunk - comp;
        const double t = total + y;
        comp = (t - total) - y;
        total = t;
    }
    return total;
}

}  // namespace

double sum(std::span<const double> x, Path path) {
    if (!use_vector(path)) {
        double s = 0.0;
        for (const double v : x) {
            s += v;
        }
        return s;
    }
    return reduce_vector(
        x.size(), [&](std::size_t i) { return vd::load(x.data() + i); },
        [&](std::size_t i) { return x[i]; });
}

double sum_squares(std::span<const double> x, Path path) {
    if (!use_vector(path)) {
        double s = 0.0;
        for (const double v : x) {
            s += v * v;
        }
        return s;
    }
    return reduce_vector(
        x.size(),
        [&](std::size_t i) {
            const vd v = vd::load(x.data() + i);
            return v * v;
        },
        [&](std::size_t i) { return x[i] * x[i]; });
}

double dot(std::span<const double> a, std::span<const double> b, Path path) {
    assert(a.size() == b.size());
    if (!use_vector(path)) {
        double s = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            s += a[i] * b[i];
        }
        return s;
    }
    return reduce_vector(
        a.size(),
        [&](std::size_t i) {
            return vd::load(a.data() + i) * vd::load(b.data() + i);
        },
        [&](std::size_t i) { return a[i] * b[i]; });
}

double squared_distance(std::span<const double> a, std::span<const double> b,
                        Path path) {
    assert(a.size() == b.size());
    if (!use_vector(path)) {
        double s = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const double d = a[i] - b[i];
            s += d * d;
        }
        return s;
    }
    return reduce_vector(
        a.size(),
        [&](std::size_t i) {
            const vd d = vd::load(a.data() + i) - vd::load(b.data() + i);
            return d * d;
        },
        [&](std::size_t i) {
            const double d = a[i] - b[i];
            return d * d;
        });
}

double centered_sum_squares(std::span<const double> x, double mu,
                            Path path) {
    if (!use_vector(path)) {
        double s = 0.0;
        for (const double v : x) {
            const double d = v - mu;
            s += d * d;
        }
        return s;
    }
    const vd vmu = vd::broadcast(mu);
    return reduce_vector(
        x.size(),
        [&](std::size_t i) {
            const vd d = vd::load(x.data() + i) - vmu;
            return d * d;
        },
        [&](std::size_t i) {
            const double d = x[i] - mu;
            return d * d;
        });
}

bool all_finite(std::span<const double> x, Path path) {
    const std::size_t n = x.size();
    if (!use_vector(path)) {
        for (const double v : x) {
            if (!std::isfinite(v)) {
                return false;
            }
        }
        return true;
    }
    // x * 0.0 is ±0 for finite x and NaN for inf/NaN; the poison
    // survives every addition, so probe == 0.0 iff all inputs finite.
    vd acc = vd::zero();
    const vd z = vd::zero();
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        acc = acc + vd::load(x.data() + i) * z;
    }
    double probe = acc.hsum_ordered();
    for (; i < n; ++i) {
        probe += x[i] * 0.0;
    }
    return probe == 0.0;
}

void multiply(std::span<const double> a, std::span<const double> b,
              std::span<double> out, Path path) {
    assert(a.size() == b.size() && a.size() == out.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        for (; i + kLanes <= n; i += kLanes) {
            (vd::load(a.data() + i) * vd::load(b.data() + i))
                .store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] = a[i] * b[i];
    }
}

void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> out, Path path) {
    assert(a.size() == b.size() && a.size() == out.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        for (; i + kLanes <= n; i += kLanes) {
            (vd::load(a.data() + i) - vd::load(b.data() + i))
                .store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] = a[i] - b[i];
    }
}

void add_in_place(std::span<double> out, std::span<const double> x,
                  Path path) {
    assert(x.size() == out.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        for (; i + kLanes <= n; i += kLanes) {
            (vd::load(out.data() + i) + vd::load(x.data() + i))
                .store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] += x[i];
    }
}

void divide(std::span<const double> a, std::span<const double> b,
            std::span<double> out, Path path) {
    assert(a.size() == b.size() && a.size() == out.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        for (; i + kLanes <= n; i += kLanes) {
            (vd::load(a.data() + i) / vd::load(b.data() + i))
                .store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] = a[i] / b[i];
    }
}

void divide(std::span<const double> x, double d, std::span<double> out,
            Path path) {
    assert(x.size() == out.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        const vd vdiv = vd::broadcast(d);
        for (; i + kLanes <= n; i += kLanes) {
            (vd::load(x.data() + i) / vdiv).store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] = x[i] / d;
    }
}

void absolute_deviation(std::span<const double> x, double center,
                        std::span<double> out, Path path) {
    assert(x.size() == out.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    if (use_vector(path)) {
        const vd vc = vd::broadcast(center);
        for (; i + kLanes <= n; i += kLanes) {
            abs(vd::load(x.data() + i) - vc).store(out.data() + i);
        }
    }
    for (; i < n; ++i) {
        out[i] = std::abs(x[i] - center);
    }
}

namespace {

/// Pivots drawn per round of the vector median.
constexpr std::size_t kMedianSample = 16;

/// Batcher's odd-even merge sort on kMedianSample slots as a list of
/// compare-exchange pairs, built at compile time.
struct SortNetwork {
    std::size_t size = 0;
    std::array<std::uint8_t, 64> lo{};
    std::array<std::uint8_t, 64> hi{};
};

constexpr SortNetwork odd_even_merge_network() {
    constexpr std::size_t n = kMedianSample;
    SortNetwork net;
    for (std::size_t p = 1; p < n; p <<= 1) {
        for (std::size_t k = p; k >= 1; k >>= 1) {
            for (std::size_t j = k % p; j + k < n; j += 2 * k) {
                for (std::size_t i = 0; i < std::min(k, n - j - k); ++i) {
                    if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
                        net.lo[net.size] = static_cast<std::uint8_t>(i + j);
                        net.hi[net.size] =
                            static_cast<std::uint8_t>(i + j + k);
                        ++net.size;
                    }
                }
            }
        }
    }
    return net;
}

constexpr SortNetwork kSampleNetwork = odd_even_merge_network();

/// Expanded pair by pair, so the sort is straight-line min/max code
/// with no branch on the data.
template <std::size_t... C>
void sort_sample(double* s, std::index_sequence<C...>) {
    const auto exchange = [](double& a, double& b) {
        const double lo = std::min(a, b);
        const double hi = std::max(a, b);
        a = lo;
        b = hi;
    };
    (exchange(s[kSampleNetwork.lo[C]], s[kSampleNetwork.hi[C]]), ...);
}

/// #{x[i] <= p}, lane-parallel.
std::size_t count_at_most(const double* x, std::size_t n, double p) {
    const vd vp = vd::broadcast(p);
    const vd one = vd::broadcast(1.0);
    const vd zero = vd::zero();
    vd tally = zero;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        tally = tally + blend_ge(vp, vd::load(x + i), one, zero);
    }
    auto count = static_cast<std::size_t>(tally.hsum_ordered());
    for (; i < n; ++i) {
        count += x[i] <= p ? 1 : 0;
    }
    return count;
}

/// #{x[i] < p}, lane-parallel.
std::size_t count_below(const double* x, std::size_t n, double p) {
    const vd vp = vd::broadcast(p);
    const vd one = vd::broadcast(1.0);
    const vd zero = vd::zero();
    vd tally = zero;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        tally = tally + blend_ge(vd::load(x + i), vp, zero, one);
    }
    auto count = static_cast<std::size_t>(tally.hsum_ordered());
    for (; i < n; ++i) {
        count += x[i] < p ? 1 : 0;
    }
    return count;
}

/// Largest x[i] < p, lane-parallel (-inf when there is none).
double max_below(const double* x, std::size_t n, double p) {
    const double none = -std::numeric_limits<double>::infinity();
    const vd vp = vd::broadcast(p);
    const vd vnone = vd::broadcast(none);
    vd acc = vnone;
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const vd v = vd::load(x + i);
        acc = max(acc, blend_ge(v, vp, vnone, v));
    }
    double best = none;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        best = std::max(best, acc.lane(lane));
    }
    for (; i < n; ++i) {
        best = x[i] < p ? std::max(best, x[i]) : best;
    }
    return best;
}

/// The vector path of median(): the upper middle order statistic is
/// rank t of the candidates c[0, m), and the lower middle is rank t - 1
/// or, when t is 0, the largest value dropped below them. Each round
/// sorts a strided sample of the candidates, binary-searches it with
/// rank counts for the pivots that bracket rank t, and keeps only the
/// candidates strictly inside. Every sampled value falls outside the
/// bracket, so a round always shrinks the set, and a round that keeps
/// more than half of it hands the rest to std::nth_element.
double vector_median(std::span<double> values) {
    const double inf = std::numeric_limits<double>::infinity();
    double* c = values.data();
    const std::size_t n = values.size();
    const bool even = n % 2 == 0;
    std::size_t m = n;
    std::size_t t = n / 2;
    double dropped_max = -inf;  // largest value dropped below the bracket
    double upper = 0.0;         // rank t
    double lower = 0.0;         // rank t - 1, read only when n is even
    for (;;) {
        const std::size_t s = std::min(m, kMedianSample);
        const std::size_t stride = m / s;
        double sample[kMedianSample];
        for (std::size_t j = 0; j < kMedianSample; ++j) {
            sample[j] = j < s ? c[j * stride] : inf;
        }
        sort_sample(sample, std::make_index_sequence<kSampleNetwork.size>{});
        if (s == m) {  // the sample is every candidate
            upper = sample[t];
            lower = t > 0 ? sample[t - 1] : dropped_max;
            break;
        }
        // First pivot with more than t candidates at or below it.
        std::size_t first = 0;
        std::size_t last = s;
        std::size_t at_or_below = 0;  // rank count of sample[first - 1]
        while (first < last) {
            const std::size_t mid = (first + last) / 2;
            const std::size_t rank = count_at_most(c, m, sample[mid]);
            if (rank > t) {
                last = mid;
            } else {
                first = mid + 1;
                at_or_below = rank;
            }
        }
        if (first < s) {
            const std::size_t under = count_below(c, m, sample[first]);
            if (under <= t) {  // rank t holds this pivot's value
                upper = sample[first];
                if (even) {
                    lower = under < t    ? upper
                            : under == 0 ? dropped_max
                                         : max_below(c, m, upper);
                }
                break;
            }
        }
        const double a = first > 0 ? sample[first - 1] : -inf;
        const double b = first < s ? sample[first] : inf;
        if (first > 0) {
            dropped_max = a;
        }
        std::size_t kept = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const double x = c[i];
            c[kept] = x;
            kept += static_cast<std::size_t>((a < x) & (x < b));
        }
        t -= at_or_below;
        if (2 * kept > m) {
            std::nth_element(c, c + t, c + kept);
            upper = c[t];
            if (even) {
                lower = t > 0 ? *std::max_element(c, c + t) : dropped_max;
            }
            break;
        }
        m = kept;
    }
    return even ? 0.5 * (lower + upper) : upper;
}

}  // namespace

double median(std::span<double> values, Path path) {
    assert(!values.empty());
    if (use_vector(path)) {
        return vector_median(values);
    }
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

std::size_t zero_dominated(std::span<const double> corr, double scale,
                           std::span<double> w, Path path) {
    assert(corr.size() == w.size());
    const std::size_t n = w.size();
    std::size_t count = 0;
    std::size_t i = 0;
    if (use_vector(path)) {
        // w != 0.0  ⟺  |w| >= denorm_min for every non-NaN w, and a NaN
        // w fails both the scalar condition (|corr*scale| >= NaN is
        // false) and this one, so the decisions agree on every input.
        const vd tiny =
            vd::broadcast(std::numeric_limits<double>::denorm_min());
        const vd vscale = vd::broadcast(scale);
        const vd zero = vd::zero();
        const vd one = vd::broadcast(1.0);
        vd tally = vd::zero();
        for (; i + kLanes <= n; i += kLanes) {
            const vd wv = vd::load(w.data() + i);
            const vd aw = abs(wv);
            const vd ac = abs(vd::load(corr.data() + i) * vscale);
            // dominated ? 0 : w, gated on w != 0 — kept lanes pass
            // through bitwise (including -0.0 and NaN payloads).
            const vd dominated = blend_ge(ac, aw, zero, wv);
            blend_ge(aw, tiny, dominated, wv).store(w.data() + i);
            tally = tally +
                    blend_ge(aw, tiny, blend_ge(ac, aw, one, zero), zero);
        }
        count = static_cast<std::size_t>(tally.hsum_ordered());
    }
    for (; i < n; ++i) {
        if (w[i] != 0.0 && std::abs(corr[i] * scale) >= std::abs(w[i])) {
            w[i] = 0.0;
            ++count;
        }
    }
    return count;
}

void amplitude(std::span<const double> re, std::span<const double> im,
               std::span<double> out, Path path) {
    assert(re.size() == im.size() && re.size() == out.size());
    const std::size_t n = re.size();
    if (!use_vector(path)) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = std::abs(std::complex<double>(re[i], im[i]));
        }
        return;
    }
    std::size_t i = 0;
    double sq[kLanes];
    for (; i + kLanes <= n; i += kLanes) {
        const vd r = vd::load(re.data() + i);
        const vd m = vd::load(im.data() + i);
        (r * r + m * m).store(sq);
        for (std::size_t l = 0; l < kLanes; ++l) {
            out[i + l] = std::sqrt(sq[l]);
        }
    }
    for (; i < n; ++i) {
        out[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
    }
}

void complex_ratio(std::span<const double> re1, std::span<const double> im1,
                   std::span<const double> re2, std::span<const double> im2,
                   std::span<double> out_re, std::span<double> out_im,
                   Path path) {
    const std::size_t n = re1.size();
    assert(im1.size() == n && re2.size() == n && im2.size() == n &&
           out_re.size() == n && out_im.size() == n);
    if (!use_vector(path)) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::complex<double> q =
                std::complex<double>(re1[i], im1[i]) /
                std::complex<double>(re2[i], im2[i]);
            out_re[i] = q.real();
            out_im[i] = q.imag();
        }
        return;
    }
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const vd a = vd::load(re1.data() + i);
        const vd b = vd::load(im1.data() + i);
        const vd c = vd::load(re2.data() + i);
        const vd d = vd::load(im2.data() + i);
        const vd denom = c * c + d * d;
        ((a * c + b * d) / denom).store(out_re.data() + i);
        ((b * c - a * d) / denom).store(out_im.data() + i);
    }
    for (; i < n; ++i) {
        const double denom = re2[i] * re2[i] + im2[i] * im2[i];
        out_re[i] = (re1[i] * re2[i] + im1[i] * im2[i]) / denom;
        out_im[i] = (im1[i] * re2[i] - re1[i] * im2[i]) / denom;
    }
}

namespace {

/// The legacy dsp::wavelet a-trous tap weights, accumulated in tap order.
constexpr double kAtrous[5] = {1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0,
                               4.0 / 16.0, 1.0 / 16.0};

/// One periodic output. `step` must already be reduced into [0, n), so
/// every tap index i + k*step lies in (-2n, 3n) and at most two wraps
/// bring it into [0, n): the index ((idx % n) + n) % n would give,
/// without a division.
double atrous_one(const double* x, std::ptrdiff_t n, std::ptrdiff_t i,
                  std::ptrdiff_t step) {
    double acc = 0.0;
    for (std::ptrdiff_t k = 0; k < 5; ++k) {
        std::ptrdiff_t idx = i + (k - 2) * step;
        while (idx < 0) {
            idx += n;
        }
        while (idx >= n) {
            idx -= n;
        }
        acc += kAtrous[k] * x[idx];
    }
    return acc;
}

}  // namespace

void atrous_smooth(std::span<const double> x, std::size_t step,
                   std::span<double> out, Path path) {
    assert(x.size() == out.size() && step >= 1);
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
    const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(step);
    if (n == 0) {
        return;
    }
    if (!use_vector(path) || n <= 4 * s) {
        // The taps are periodic in n, so a hole spacing of n or more
        // (a series shorter than the coarsest step) reduces once per pass.
        const std::ptrdiff_t r = s < n ? s : s % n;
        for (std::ptrdiff_t i = 0; i < n; ++i) {
            out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, r);
        }
        return;
    }
    // Boundary positions need the periodic wrap; the interior
    // [2*step, n - 2*step) reads shifted unit-stride spans directly.
    for (std::ptrdiff_t i = 0; i < 2 * s; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
    for (std::ptrdiff_t i = n - 2 * s; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
    const double* p = x.data();
    const vd k0 = vd::broadcast(kAtrous[0]);
    const vd k1 = vd::broadcast(kAtrous[1]);
    const vd k2 = vd::broadcast(kAtrous[2]);
    const vd k3 = vd::broadcast(kAtrous[3]);
    const vd k4 = vd::broadcast(kAtrous[4]);
    std::ptrdiff_t i = 2 * s;
    const std::ptrdiff_t interior_end = n - 2 * s;
    const std::ptrdiff_t lanes = static_cast<std::ptrdiff_t>(kLanes);
    for (; i + lanes <= interior_end; i += lanes) {
        // Same accumulation order as atrous_one: 0 + k0*t0 + k1*t1 + ...
        vd acc = vd::zero();
        acc = acc + k0 * vd::load(p + i - 2 * s);
        acc = acc + k1 * vd::load(p + i - s);
        acc = acc + k2 * vd::load(p + i);
        acc = acc + k3 * vd::load(p + i + s);
        acc = acc + k4 * vd::load(p + i + 2 * s);
        acc.store(out.data() + i);
    }
    for (; i < interior_end; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
}

namespace {

void scalar_median_window(std::span<const double> x, std::size_t i,
                          std::size_t half, double* buffer, double& out) {
    const std::size_t n = x.size();
    const std::size_t reach = std::min({half, i, n - 1 - i});
    const std::size_t w = 2 * reach + 1;
    std::copy(x.data() + (i - reach), x.data() + (i + reach + 1), buffer);
    std::sort(buffer, buffer + w);
    out = buffer[w / 2];
}

vd med3(vd a, vd b, vd c) {
    return max(min(a, b), min(max(a, b), c));
}

vd med5(vd a, vd b, vd c, vd d, vd e) {
    // Classic 6-comparison median-of-5 network.
    const vd m1 = max(min(a, b), min(c, d));
    const vd m2 = min(max(a, b), max(c, d));
    return med3(m1, m2, e);
}

vd med7(vd w0, vd w1, vd w2, vd w3, vd w4, vd w5, vd w6) {
    // Odd-even transposition sort over 7 registers (7 rounds), provably
    // sorting; the median is slot 3. All ops are min/max selections, so
    // the result is an input value — identical to sort-and-pick-middle.
    vd s[7] = {w0, w1, w2, w3, w4, w5, w6};
    const auto cex = [&](int a, int b) {
        const vd lo = min(s[a], s[b]);
        const vd hi = max(s[a], s[b]);
        s[a] = lo;
        s[b] = hi;
    };
    for (int round = 0; round < 7; ++round) {
        if (round % 2 == 0) {
            cex(0, 1);
            cex(2, 3);
            cex(4, 5);
        } else {
            cex(1, 2);
            cex(3, 4);
            cex(5, 6);
        }
    }
    return s[3];
}

}  // namespace

bool sliding_median(std::span<const double> x, int half,
                    std::span<double> out, Path path) {
    if (half < 1 || half > 3) {
        return false;
    }
    assert(x.size() == out.size());
    const std::size_t n = x.size();
    const std::size_t h = static_cast<std::size_t>(half);
    double buffer[7];
    if (!use_vector(path) || n < 2 * h + 1) {
        for (std::size_t i = 0; i < n; ++i) {
            scalar_median_window(x, i, h, buffer, out[i]);
        }
        return true;
    }
    for (std::size_t i = 0; i < h; ++i) {
        scalar_median_window(x, i, h, buffer, out[i]);
        scalar_median_window(x, n - 1 - i, h, buffer, out[n - 1 - i]);
    }
    const double* p = x.data();
    std::size_t i = h;
    const std::size_t interior_end = n - h;
    for (; i + kLanes <= interior_end; i += kLanes) {
        vd m;
        switch (half) {
            case 1:
                m = med3(vd::load(p + i - 1), vd::load(p + i),
                         vd::load(p + i + 1));
                break;
            case 2:
                m = med5(vd::load(p + i - 2), vd::load(p + i - 1),
                         vd::load(p + i), vd::load(p + i + 1),
                         vd::load(p + i + 2));
                break;
            default:
                m = med7(vd::load(p + i - 3), vd::load(p + i - 2),
                         vd::load(p + i - 1), vd::load(p + i),
                         vd::load(p + i + 1), vd::load(p + i + 2),
                         vd::load(p + i + 3));
                break;
        }
        m.store(out.data() + i);
    }
    for (; i < interior_end; ++i) {
        scalar_median_window(x, i, h, buffer, out[i]);
    }
    return true;
}

void biquad_cascade(std::span<const double> x, std::span<double> y,
                    std::span<Biquad> sections, Path path) {
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    if (!use_vector(path)) {
        // Legacy order: one section at a time over the whole signal.
        if (y.data() != x.data()) {
            std::copy(x.begin(), x.end(), y.begin());
        }
        for (Biquad& s : sections) {
            for (std::size_t i = 0; i < n; ++i) {
                const double xi = y[i];
                const double yi = s.b0 * xi + s.z1;
                s.z1 = s.b1 * xi - s.a1 * yi + s.z2;
                s.z2 = s.b2 * xi - s.a2 * yi;
                y[i] = yi;
            }
        }
        return;
    }
    // Fused: each sample flows through the whole cascade before the next
    // one, so the signal crosses memory once. Per (sample, section) the
    // arithmetic and state updates are identical to the legacy order,
    // hence bit-exact.
    for (std::size_t i = 0; i < n; ++i) {
        double v = x[i];
        for (Biquad& s : sections) {
            const double yi = s.b0 * v + s.z1;
            s.z1 = s.b1 * v - s.a1 * yi + s.z2;
            s.z2 = s.b2 * v - s.a2 * yi;
            v = yi;
        }
        y[i] = v;
    }
}

void squared_distance_columns(std::span<const double> cols,
                              std::size_t n_rows,
                              std::span<const double> x,
                              std::span<double> out, Path path) {
    const std::size_t dim = x.size();
    assert(cols.size() == n_rows * dim && out.size() == n_rows);
    const double* c = cols.data();
    if (!use_vector(path)) {
        for (std::size_t r = 0; r < n_rows; ++r) {
            double acc = 0.0;
            for (std::size_t j = 0; j < dim; ++j) {
                const double d = c[j * n_rows + r] - x[j];
                acc += d * d;
            }
            out[r] = acc;
        }
        return;
    }
    std::size_t r = 0;
    for (; r + kLanes <= n_rows; r += kLanes) {
        vd acc = vd::zero();
        for (std::size_t j = 0; j < dim; ++j) {
            const vd d =
                vd::load(c + j * n_rows + r) - vd::broadcast(x[j]);
            acc = acc + d * d;
        }
        acc.store(out.data() + r);
    }
    for (; r < n_rows; ++r) {
        double acc = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
            const double d = c[j * n_rows + r] - x[j];
            acc += d * d;
        }
        out[r] = acc;
    }
}

void dot_columns(std::span<const double> cols, std::size_t n_rows,
                 std::span<const double> x, std::span<double> out,
                 Path path) {
    const std::size_t dim = x.size();
    assert(cols.size() == n_rows * dim && out.size() == n_rows);
    const double* c = cols.data();
    if (!use_vector(path)) {
        for (std::size_t r = 0; r < n_rows; ++r) {
            double acc = 0.0;
            for (std::size_t j = 0; j < dim; ++j) {
                acc += c[j * n_rows + r] * x[j];
            }
            out[r] = acc;
        }
        return;
    }
    std::size_t r = 0;
    for (; r + kLanes <= n_rows; r += kLanes) {
        vd acc = vd::zero();
        for (std::size_t j = 0; j < dim; ++j) {
            acc = acc + vd::load(c + j * n_rows + r) * vd::broadcast(x[j]);
        }
        acc.store(out.data() + r);
    }
    for (; r < n_rows; ++r) {
        double acc = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
            acc += c[j * n_rows + r] * x[j];
        }
        out[r] = acc;
    }
}

}  // namespace wimi::simd
