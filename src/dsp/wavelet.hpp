// Discrete wavelet transforms.
//
// Two transforms are provided:
//
//  * A decimated orthogonal DWT (Haar / Daubechies-2 / Daubechies-4) with
//    periodic boundary handling and perfect reconstruction — the textbook
//    transform the paper cites via Torrence & Compo [23].
//
//  * An undecimated ("a trous" / stationary) transform in the additive
//    form x = sum_l detail_l + approx_L, where every scale keeps the full
//    signal length. Sample-aligned scales are what the spatially-selective
//    correlation denoiser (paper Sec. III-C, ref. Xu et al. [24]) needs to
//    multiply adjacent-scale coefficients element-wise (Eq. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wimi::dsp {

/// Supported orthogonal wavelet families for the decimated DWT.
enum class Wavelet {
    kHaar,  ///< 2-tap Haar
    kDb2,   ///< 4-tap Daubechies
    kDb4,   ///< 8-tap Daubechies
};

/// Low-pass analysis filter taps for `wavelet`.
std::span<const double> scaling_filter(Wavelet wavelet);

/// Result of a multi-level decimated DWT.
struct DwtDecomposition {
    /// Detail coefficients, details[0] = finest scale (level 1).
    std::vector<std::vector<double>> details;
    /// Approximation coefficients at the coarsest level.
    std::vector<double> approx;
    /// Original signal length (decomposition pads odd lengths).
    std::size_t original_length = 0;
    Wavelet wavelet = Wavelet::kHaar;
};

/// Largest level count usable for a signal of length n with `wavelet`.
std::size_t max_dwt_levels(std::size_t n, Wavelet wavelet);

/// Multi-level decimated DWT with periodic boundaries. `levels` must be
/// between 1 and max_dwt_levels(input.size(), wavelet).
DwtDecomposition dwt(std::span<const double> input, Wavelet wavelet,
                     std::size_t levels);

/// Inverse of dwt(); returns a signal of decomposition.original_length.
std::vector<double> idwt(const DwtDecomposition& decomposition);

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
