#include "dsp/wavelet.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {

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
