#include "dsp/wavelet_denoise.hpp"

#include <cmath>

#include "common/error.hpp"
#include "dsp/stats.hpp"
#include "dsp/wavelet.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {
namespace {

double power(std::span<const double> v) { return simd::sum_squares(v); }

}  // namespace

std::vector<double> wavelet_correlation_denoise(
    std::span<const double> input, const WaveletDenoiseConfig& config,
    WaveletDenoiseReport* report) {
    ensure(input.size() >= 8,
           "wavelet_correlation_denoise: need at least 8 samples");
    ensure(config.levels >= 2,
           "wavelet_correlation_denoise: need at least 2 scales to "
           "correlate adjacent scales");
    // robust_sigma would reject non-finite input deep inside the median
    // computation; checking here names the caller instead of an opaque
    // "median: ..." failure from inside the decomposition.
    if (!simd::all_finite(input)) {
        fail("wavelet_correlation_denoise: input contains a non-finite "
             "value");
    }

    auto decomposition = atrous_decompose(input, config.levels);
    const std::size_t n = input.size();
    const std::size_t levels = config.levels;

    if (report != nullptr) {
        report->iterations_per_scale.assign(levels, 0);
        report->residual_power_per_scale.assign(levels, 0.0);
        report->noise_threshold_per_scale.assign(levels, 0.0);
    }

    // The returned series doubles as the call's scratch: it holds the
    // robust-sigma selections and the Eq. 11 product until the
    // reconstruction overwrites it, so a call allocates only the planes
    // and this vector.
    std::vector<double> out(n);
    const std::span<double> corr(out);

    // An impulse concentrates aligned, large coefficients at the same
    // position on adjacent scales, so its normalized cross-scale
    // correlation (Eq. 12) dominates its magnitude; stationary CSI
    // amplitude structure and uncorrelated measurement noise do not.
    // Impulse coefficients are zeroed in place (the paper's stage-2 goal
    // is impulse removal), and the clean series is rebuilt from what
    // remains.
    for (std::size_t l = 0; l < levels; ++l) {
        const std::span<double> w_l = decomposition.plane(l);
        // The scale adjacent to the coarsest detail plane is the smooth
        // approximation — its structure still tracks the true signal.
        const std::span<const double> w_next = decomposition.plane(l + 1);

        // Robust noise power at this scale: sigma_hat from the median of
        // |coefficients| (Donoho–Johnstone via the paper's ref. [24]).
        const double sigma_hat = robust_sigma(w_l, corr);
        const double noise_power = config.noise_threshold_scale *
                                   static_cast<double>(n) * sigma_hat *
                                   sigma_hat;
        if (report != nullptr) {
            report->noise_threshold_per_scale[l] = noise_power;
        }

        // p_w tracks power(w_l): a pass that zeroes nothing leaves the
        // plane, and so its power, unchanged.
        double p_w = power(w_l);
        std::size_t iterations = 0;
        while (p_w > noise_power && iterations < config.max_iterations) {
            ++iterations;
            // Eq. 11: element-wise product of adjacent scales.
            simd::multiply(w_l, w_next, corr);
            const double p_corr = power(corr);
            if (p_corr <= 0.0) {
                break;
            }
            // Eq. 12: rescale the correlation plane to the power of the
            // coefficient plane so magnitudes are comparable. Eq. 13: a
            // dominant normalized correlation marks a sharp cross-scale-
            // aligned transient — an impulse sample. Zero it out of the
            // working plane so the next pass re-examines the rest with
            // the impulse energy gone.
            const double scale = std::sqrt(p_w / p_corr);
            if (simd::zero_dominated(corr, scale, w_l) == 0) {
                break;
            }
            p_w = power(w_l);
        }
        if (report != nullptr) {
            report->iterations_per_scale[l] = iterations;
            report->residual_power_per_scale[l] = p_w;
        }
    }

    // Reconstruct from the residual planes (impulse coefficients removed)
    // plus the smooth approximation.
    atrous_reconstruct(decomposition, out);
    return out;
}

}  // namespace wimi::dsp
