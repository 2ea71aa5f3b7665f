// CSI amplitude denoising (paper Sec. III-C).
//
// Three stages:
//   1. Outlier removal — samples outside [mu - 3 sigma, mu + 3 sigma] are
//      rejected (replaced by the inlier mean to keep packet alignment).
//   2. Impulse removal — the spatially-selective wavelet-correlation
//      denoiser (dsp::wavelet_correlation_denoise, Eq. 8–13).
//   3. Amplitude ratio — dividing the two antennas' cleaned amplitudes
//      cancels hardware gain and part of the environmental multipath
//      (Fig. 8), giving the stable Delta-Psi input of the material feature.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/phase_calibration.hpp"
#include "csi/frame.hpp"
#include "csi/soa.hpp"
#include "dsp/wavelet_denoise.hpp"

namespace wimi::core {

/// Tuning for the amplitude cleaning chain.
struct AmplitudeDenoiseConfig {
    double outlier_k_sigma = 3.0;          ///< paper: the 3-sigma region
    bool remove_impulses = true;           ///< wavelet-correlation stage
    dsp::WaveletDenoiseConfig wavelet;     ///< stage-2 parameters
};

/// Cleans one amplitude time series (stages 1–2).
std::vector<double> denoise_amplitude_series(
    std::span<const double> amplitudes, const AmplitudeDenoiseConfig& config);

/// Cleaned per-packet amplitude ratio |H_first| / |H_second| at one
/// subcarrier: each antenna's series is cleaned, then divided.
std::vector<double> denoised_amplitude_ratio(
    const csi::CsiSeries& series, AntennaPair pair, std::size_t subcarrier,
    const AmplitudeDenoiseConfig& config);

/// SoA variant: reads the cached contiguous amplitude planes instead of
/// materializing a fresh series per antenna per call.
std::vector<double> denoised_amplitude_ratio(
    const csi::CsiSoa& soa, AntennaPair pair, std::size_t subcarrier,
    const AmplitudeDenoiseConfig& config);

/// Variance of the (uncleaned) per-antenna amplitude and of the amplitude
/// ratio at each subcarrier — the Fig. 8 comparison.
struct AmplitudeVarianceReport {
    std::vector<double> antenna_first;   ///< per-subcarrier variance, ant 1
    std::vector<double> antenna_second;  ///< per-subcarrier variance, ant 2
    std::vector<double> ratio;           ///< per-subcarrier ratio variance
};

/// Computes normalized (unit-mean) amplitude variances per subcarrier for
/// both antennas of `pair` and for their ratio.
AmplitudeVarianceReport amplitude_variance_report(
    const csi::CsiSeries& series, AntennaPair pair);

/// SoA variant: amplitude planes are computed once and cached across
/// pairs, so sweeping many candidate pairs (antenna selection) reuses
/// them instead of re-materializing per pair.
AmplitudeVarianceReport amplitude_variance_report(const csi::CsiSoa& soa,
                                                  AntennaPair pair);

/// Per-packet inlier mask: true when the packet's amplitude at this
/// subcarrier is within k_sigma of the mean on *both* antennas of the
/// pair. Packets flagged here carry impulse bursts or AGC glitches, and
/// the pipeline excludes them from phase averaging too — a corrupted
/// amplitude sample means the complex CSI (and hence its phase) is
/// untrustworthy for that packet.
std::vector<bool> inlier_packet_mask(const csi::CsiSoa& soa,
                                     AntennaPair pair,
                                     std::size_t subcarrier, double k_sigma);

}  // namespace wimi::core
