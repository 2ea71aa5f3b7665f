#include "core/material_feature.hpp"

#include <cmath>
#include <cstdlib>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dsp/circular.hpp"
#include "dsp/stats.hpp"
#include "obs/obs.hpp"
#include "simd/kernels.hpp"

namespace wimi::core {
namespace {

/// Coherent estimate of the stable antenna ratio at one subcarrier.
///
/// Each packet's complex ratio r_m = H_first / H_second cancels the
/// board-common phase errors of Eq. 5 (CFO, SFO, PBD) exactly, like the
/// paper's phase differencing, while keeping phase and amplitude coupled.
/// Averaging r_m *in the complex domain* then suppresses multipath
/// contributions with fluctuating phases — they average toward zero —
/// where averaging |r| and arg(r) separately would leave a multipath-
/// dependent bias on the amplitude ratio. arg() of the result is the
/// calibrated phase difference, abs() the stable amplitude ratio.
///
/// With `denoise` enabled (the pipeline default) the estimator applies the
/// paper's two cleaning stages first: packets whose amplitude is a 3-sigma
/// outlier on either antenna are dropped (impulse bursts corrupt the whole
/// complex sample), and the surviving ratio series is run through the
/// wavelet-correlation denoiser component-wise.
Complex mean_complex_ratio(const csi::CsiSoa& soa, AntennaPair pair,
                           std::size_t subcarrier,
                           const AmplitudeDenoiseConfig& denoise,
                           bool use_denoising) {
    const std::size_t packets = soa.packet_count();
    std::vector<bool> mask(packets, true);
    if (use_denoising) {
        mask = inlier_packet_mask(soa, pair, subcarrier,
                                  denoise.outlier_k_sigma);
    }
    const auto re1p = soa.real_plane(pair.first, subcarrier);
    const auto im1p = soa.imag_plane(pair.first, subcarrier);
    const auto re2p = soa.real_plane(pair.second, subcarrier);
    const auto im2p = soa.imag_plane(pair.second, subcarrier);
    // Packets whose reference-antenna CSI quantized to exactly zero (deep
    // fade at int8 resolution) carry no usable ratio and are skipped like
    // outliers.
    const auto usable = [&](std::size_t m) {
        return re2p[m] != 0.0 || im2p[m] != 0.0;
    };
    // Compact the surviving packets into contiguous component arrays so
    // the ratio kernel runs over unit-stride spans.
    std::vector<double> re1;
    std::vector<double> im1;
    std::vector<double> re2;
    std::vector<double> im2;
    re1.reserve(packets);
    im1.reserve(packets);
    re2.reserve(packets);
    im2.reserve(packets);
    const auto gather = [&](std::size_t m) {
        re1.push_back(re1p[m]);
        im1.push_back(im1p[m]);
        re2.push_back(re2p[m]);
        im2.push_back(im2p[m]);
    };
    for (std::size_t m = 0; m < packets; ++m) {
        if (mask[m] && usable(m)) {
            gather(m);
        }
    }
    // Degenerate capture where every packet was flagged: fall back to the
    // unmasked series rather than failing the measurement.
    if (re1.empty()) {
        for (std::size_t m = 0; m < packets; ++m) {
            if (usable(m)) {
                gather(m);
            }
        }
    }
    ensure(!re1.empty(),
           "mean_complex_ratio: no packet has nonzero reference amplitude");

    std::vector<double> ratio_re(re1.size());
    std::vector<double> ratio_im(re1.size());
    simd::complex_ratio(re1, im1, re2, im2, ratio_re, ratio_im);

    if (use_denoising && denoise.remove_impulses && ratio_re.size() >= 8) {
        ratio_re = dsp::wavelet_correlation_denoise(ratio_re,
                                                    denoise.wavelet);
        ratio_im = dsp::wavelet_correlation_denoise(ratio_im,
                                                    denoise.wavelet);
    }

    const double count = static_cast<double>(ratio_re.size());
    return {simd::sum(ratio_re) / count, simd::sum(ratio_im) / count};
}

}  // namespace

int estimate_gamma(double delta_theta_rad, double delta_psi,
                   const GammaConfig& config) {
    ensure(config.max_wraps >= 0, "estimate_gamma: max_wraps must be >= 0");
    ensure(delta_psi > 0.0, "estimate_gamma: delta_psi must be positive");
    const double log_psi = std::log(delta_psi);  // < 0 for attenuation

    // A pure phase-only measurement (lossless material) carries no
    // amplitude information to disambiguate with; keep gamma = 0.
    if (std::abs(log_psi) < 1e-12) {
        return 0;
    }

    int best_gamma = 0;
    bool found = false;
    for (int magnitude = 0; magnitude <= config.max_wraps && !found;
         ++magnitude) {
        for (const int sign : {1, -1}) {
            const int gamma = sign * magnitude;
            if (magnitude == 0 && sign < 0) {
                continue;
            }
            const double denom = delta_theta_rad + 2.0 * kPi * gamma;
            if (std::abs(denom) < 1e-12) {
                continue;
            }
            const double omega = log_psi / denom;
            // Admissible: attenuation and phase retardation must have
            // consistent signs — every lossy retarding liquid has a
            // positive feature — and a plausible magnitude.
            if (omega >= config.min_abs_omega &&
                omega <= config.max_abs_omega) {
                best_gamma = gamma;
                found = true;
                break;
            }
        }
    }
    return best_gamma;
}

namespace {

/// Eq. 18/19: the wrapped phase-difference change and amplitude-ratio
/// change of one pair and subcarrier against the baseline's stable ratio
/// (gamma and Omega not yet filled in).
MaterialMeasurement raw_measurement(Complex ratio_baseline,
                                    const csi::CsiSoa& target,
                                    AntennaPair pair,
                                    std::size_t subcarrier,
                                    const FeatureConfig& config) {
    MaterialMeasurement m;
    // Stable antenna ratio of the target, cleaned like the baseline's
    // (Fig. 14 ablation: without amplitude denoising, neither the outlier
    // gate nor the impulse removal runs).
    const Complex ratio_target =
        mean_complex_ratio(target, pair, subcarrier, config.denoise,
                           config.use_amplitude_denoising);

    // Eq. 18: change of the calibrated phase difference.
    m.delta_theta_rad =
        wrap_to_pi(std::arg(ratio_target) - std::arg(ratio_baseline));

    // Eq. 19: change of the stable amplitude ratio.
    m.delta_psi = std::abs(ratio_target) / std::abs(ratio_baseline);
    ensure(m.delta_psi > 0.0,
           "BaselineReference: nonpositive amplitude-ratio change");
    return m;
}

/// Eq. 21 with the ridge regularizer (see FeatureConfig). The sign follows
/// the paper's worked algebra of Eq. 19-20: Omega = ln(DeltaPsi) / d is
/// positive for every lossy retarding liquid (ln DeltaPsi and d are both
/// negative in the exp(-j beta d) phase convention this codebase uses).
void finish_measurement(MaterialMeasurement& m, int gamma,
                        const FeatureConfig& config) {
    if (gamma != 0) {
        WIMI_OBS_COUNT("feature.phase_unwrap_corrections", 1);
    }
    m.gamma = gamma;
    const double denom =
        m.delta_theta_rad + 2.0 * kPi * static_cast<double>(gamma);
    const double ridge = config.phase_ridge_rad;
    m.omega = std::log(m.delta_psi) * denom /
              (denom * denom + ridge * ridge);
}

/// Appends one measurement per pair at one subcarrier, with cross-pair
/// wrap recovery (see BaselineReference::measure). `baseline_ratios` holds
/// the baseline's stable ratio of each pair, in `pairs` order.
void measure_subcarrier(std::span<const Complex> baseline_ratios,
                        const csi::CsiSoa& target,
                        const std::vector<AntennaPair>& pairs,
                        std::size_t subcarrier, const FeatureConfig& config,
                        std::vector<MaterialMeasurement>& out) {
    // Reference pair: assumed wrap-free (the deployment's closest pair);
    // its gamma comes from the admissible-range search of Sec. III-E.
    MaterialMeasurement ref = raw_measurement(
        baseline_ratios[0], target, pairs.front(), subcarrier, config);
    finish_measurement(
        ref, estimate_gamma(ref.delta_theta_rad, ref.delta_psi, config.gamma),
        config);
    const double ref_denom =
        ref.delta_theta_rad + kTwoPi * static_cast<double>(ref.gamma);
    const double ref_log_psi = -std::log(ref.delta_psi);
    out.push_back(ref);

    for (std::size_t p = 1; p < pairs.size(); ++p) {
        MaterialMeasurement m = raw_measurement(baseline_ratios[p], target,
                                                pairs[p], subcarrier, config);
        // Coarse-amplitude wrap recovery: the log amplitude-ratio changes
        // of two pairs scale with their in-target path differences
        // regardless of the material, so their ratio predicts this pair's
        // unwrapped phase from the reference pair's phase.
        int gamma = 0;
        if (std::abs(ref_log_psi) > 0.05) {
            double path_ratio = -std::log(m.delta_psi) / ref_log_psi;
            // Geometry bounds the array's path-difference ratios; clamping
            // keeps a noisy near-zero reference from predicting wild wraps.
            path_ratio = clamp(path_ratio, 0.0, 8.0);
            const double predicted = ref_denom * path_ratio;
            gamma = static_cast<int>(
                std::lround((predicted - m.delta_theta_rad) / kTwoPi));
            gamma = static_cast<int>(clamp(gamma, -config.gamma.max_wraps,
                                           config.gamma.max_wraps));
        }
        finish_measurement(m, gamma, config);
        out.push_back(m);
    }
}

}  // namespace

BaselineReference::BaselineReference(const csi::CsiSoa& baseline,
                                     std::vector<AntennaPair> pairs,
                                     std::vector<std::size_t> subcarriers,
                                     FeatureConfig config)
    : antenna_count_(baseline.antenna_count()),
      subcarrier_count_(baseline.subcarrier_count()),
      pairs_(std::move(pairs)),
      subcarriers_(std::move(subcarriers)),
      config_(config) {
    ensure(!pairs_.empty(), "BaselineReference: need >= 1 antenna pair");
    ensure(!subcarriers_.empty(), "BaselineReference: need >= 1 subcarrier");
    WIMI_OBS_COUNT("feature.baseline_references", 1);
    ratios_.reserve(subcarriers_.size() * pairs_.size());
    for (const std::size_t sc : subcarriers_) {
        for (const AntennaPair pair : pairs_) {
            const Complex ratio =
                mean_complex_ratio(baseline, pair, sc, config_.denoise,
                                   config_.use_amplitude_denoising);
            // Every target measured against a zero or non-finite ratio
            // would fail (Eq. 19 divides by it); fail here, once.
            const double magnitude = std::abs(ratio);
            ensure(std::isfinite(magnitude) && magnitude > 0.0,
                   "BaselineReference: zero or non-finite baseline antenna "
                   "ratio");
            ratios_.push_back(ratio);
        }
    }
}

std::vector<MaterialMeasurement> BaselineReference::measure(
    const csi::CsiSoa& target) const {
    ensure(target.antenna_count() == antenna_count_ &&
               target.subcarrier_count() == subcarrier_count_,
           "BaselineReference: target dimensions differ from the baseline's");
    std::vector<MaterialMeasurement> out;
    out.reserve(ratios_.size());
    const std::span<const Complex> ratios(ratios_);
    for (std::size_t i = 0; i < subcarriers_.size(); ++i) {
        measure_subcarrier(ratios.subspan(i * pairs_.size(), pairs_.size()),
                           target, pairs_, subcarriers_[i], config_, out);
    }
    return out;
}

std::vector<double> extract_feature_vector(const BaselineReference& baseline,
                                           const csi::CsiSoa& target) {
    WIMI_OBS_COUNT("feature.vectors_extracted", 1);
    const std::vector<MaterialMeasurement> measurements =
        baseline.measure(target);
    std::vector<double> features;
    features.reserve(measurements.size());
    for (const MaterialMeasurement& m : measurements) {
        features.push_back(m.omega);
    }
    return features;
}

std::vector<double> extract_feature_vector(
    const csi::CsiSoa& baseline, const csi::CsiSoa& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers,
    const FeatureConfig& config) {
    WIMI_TRACE_SPAN("feature.extract");
    return extract_feature_vector(
        BaselineReference(baseline, pairs, subcarriers, config), target);
}

std::vector<double> extract_feature_vector(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers,
    const FeatureConfig& config) {
    ensure(!baseline.empty() && !target.empty(),
           "extract_feature_vector: baseline and target must be "
           "non-empty");
    // Build the SoA once: amplitude planes are then computed and cached a
    // single time across all (subcarrier, pair) combinations.
    return extract_feature_vector(csi::CsiSoa(baseline),
                                  csi::CsiSoa(target), pairs, subcarriers,
                                  config);
}

}  // namespace wimi::core
