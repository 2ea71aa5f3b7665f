// Spatially-selective wavelet-correlation denoiser (paper Sec. III-C).
//
// The paper's key observation (Eq. 8–10): across wavelet scales,
// coefficients of a sharp transient are strongly correlated (an impulse
// puts aligned energy at the same position on every scale) while ordinary
// measurement noise is weakly correlated. The algorithm multiplies
// coefficients of adjacent scales (Eq. 11), normalizes the product to the
// coefficient power (Eq. 12), and iteratively extracts the coefficients
// whose normalized correlation dominates their magnitude (Eq. 13) until
// the residual power at each scale falls to the noise floor, estimated by
// robust median estimation (ref. [24], Xu et al. 1994). Because the
// paper's stage-2 goal is *impulse removal* (the useful CSI amplitude is
// the smooth, slowly varying part), the extracted cross-scale-correlated
// coefficients are discarded and the clean series is rebuilt from the
// residual planes plus the smooth approximation — the mirror image of
// Xu et al.'s original edge-preserving use of the same masking rule.
//
// The transform is the undecimated a-trous transform so adjacent scales
// stay sample-aligned (a prerequisite of the element-wise product in
// Eq. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wimi::dsp {

/// Tuning parameters for the correlation denoiser.
struct WaveletDenoiseConfig {
    /// Number of a-trous scales. 4 resolves impulses (scale 1–2) from CSI
    /// amplitude drift (scale 3+) for the 20–1000 packet series WiMi uses.
    std::size_t levels = 4;
    /// Maximum extraction iterations per scale (safety bound; convergence
    /// normally takes < 10).
    std::size_t max_iterations = 32;
    /// Multiplier on the robust noise power estimate used as the stop
    /// threshold per scale.
    double noise_threshold_scale = 1.0;
};

/// Per-scale diagnostics for tests and the Fig. 7 bench.
struct WaveletDenoiseReport {
    std::vector<std::size_t> iterations_per_scale;
    std::vector<double> residual_power_per_scale;
    std::vector<double> noise_threshold_per_scale;
};

/// Denoises `input` and returns the reconstructed clean series
/// (same length). Optionally fills `report` with per-scale diagnostics.
/// Requires >= 8 all-finite samples (the robust noise estimate is an
/// order statistic); throws wimi::Error otherwise.
std::vector<double> wavelet_correlation_denoise(
    std::span<const double> input, const WaveletDenoiseConfig& config = {},
    WaveletDenoiseReport* report = nullptr);

}  // namespace wimi::dsp
