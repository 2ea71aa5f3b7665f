// The undecimated ("a trous" / stationary) wavelet transform in the
// additive form x = sum_l detail_l + approx_L, where every scale keeps
// the full signal length. Sample-aligned scales are what the
// spatially-selective correlation denoiser (paper Sec. III-C, ref. Xu et
// al. [24]) needs to multiply adjacent-scale coefficients element-wise
// (Eq. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wimi::dsp {

/// Result of the undecimated a-trous decomposition:
/// input = plane(0) + plane(1) + ... + plane(levels), all `length` long.
/// plane(l) for l < levels is detail scale l (0 = finest); plane(levels)
/// is the residual smooth approximation. The planes share one
/// plane-major allocation.
struct AtrousDecomposition {
    std::size_t levels = 0;
    std::size_t length = 0;
    std::vector<double> planes;  ///< (levels + 1) * length samples

    std::span<double> plane(std::size_t l) {
        return std::span<double>(planes).subspan(l * length, length);
    }
    std::span<const double> plane(std::size_t l) const {
        return std::span<const double>(planes).subspan(l * length, length);
    }
};

/// Undecimated a-trous transform using the cubic B3-spline smoothing kernel
/// (1/16)[1 4 6 4 1] with 2^l hole insertion and periodic boundaries.
/// Requires 1 <= levels and a non-empty input. Allocates only the planes.
AtrousDecomposition atrous_decompose(std::span<const double> input,
                                     std::size_t levels);

/// Reconstruction is the plain sum of the approximation and every detail
/// plane, written into `out` (d.length samples).
void atrous_reconstruct(const AtrousDecomposition& d, std::span<double> out);

}  // namespace wimi::dsp
