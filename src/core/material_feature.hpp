// The size-independent material feature (paper Sec. III-D/E).
//
// From a baseline capture (empty beaker) and a target capture (liquid in
// the beaker), WiMi computes per antenna pair and subcarrier:
//
//   DeltaTheta = change of the calibrated antenna-pair phase difference
//                (Eq. 18) = (D1 - D2)(beta_tar - beta_free)
//   DeltaPsi   = change of the cleaned amplitude ratio (Eq. 19)
//              = exp(-(D1 - D2)(alpha_tar - alpha_free))
//
// and the material feature (Eq. 21)
//
//   Omega = ln(DeltaPsi) / (DeltaTheta + 2 gamma pi)
//         = (alpha_tar - alpha_free) / (beta_tar - beta_free),
//
// in which the in-target path lengths D1, D2 cancel — the feature depends
// on the material only, not the target size. gamma is the integer phase
// wrap count, estimated from the coarse amplitude information (Sec. III-E).
//
// Sign convention: this codebase uses the physics convention
// H ~ exp(-j beta d), so a retarding material makes DeltaTheta negative
// and ln(DeltaPsi) negative; their ratio Omega is positive for every
// lossy retarding liquid and equals rf::theoretical_material_feature.
// (The paper's Eq. 21 prints -ln(DeltaPsi) and alpha_free - alpha_tar;
// its own Eq. 19-20 algebra and the positive plotted features of Fig. 9
// give the signs used here.)
#pragma once

#include <cstddef>
#include <vector>

#include "core/amplitude_denoising.hpp"
#include "core/phase_calibration.hpp"
#include "csi/frame.hpp"
#include "csi/soa.hpp"

namespace wimi::core {

/// Bounds used when estimating the integer wrap count gamma.
struct GammaConfig {
    int max_wraps = 2;          ///< search gamma in [-max_wraps, max_wraps]
    /// Physically admissible |Omega| range: the liquid classes WiMi senses
    /// span ~0.01 (oil) to ~0.65 (honey); candidates outside are rejected.
    double min_abs_omega = 0.03;
    double max_abs_omega = 0.8;
};

/// One (pair, subcarrier) measurement and its derived feature.
struct MaterialMeasurement {
    double delta_theta_rad = 0.0;  ///< Eq. 18, wrapped to (-pi, pi]
    double delta_psi = 1.0;        ///< Eq. 19 amplitude-ratio change
    int gamma = 0;                 ///< estimated wrap count
    double omega = 0.0;            ///< Eq. 21 material feature
};

/// Feature-extraction settings shared by the whole pipeline.
struct FeatureConfig {
    AmplitudeDenoiseConfig denoise;
    /// Fig. 14 ablation switch: false feeds raw (stage-0) ratios through.
    bool use_amplitude_denoising = true;
    GammaConfig gamma;
    /// Ridge regularizer [rad] on the Eq. 21 denominator:
    /// Omega = -ln(DeltaPsi) * d / (d^2 + lambda^2) with
    /// d = DeltaTheta + 2 gamma pi. For |d| >> lambda this is Eq. 21
    /// exactly; for near-phase-invisible materials (oil: |DeltaTheta|
    /// ~0.2 rad) it bounds the noise amplification of the division
    /// instead of letting Omega blow up.
    double phase_ridge_rad = 0.12;
};

/// Estimates the wrap count gamma: the integer in [-max_wraps, max_wraps]
/// of smallest magnitude for which Omega lands in the admissible range
/// (coarse-amplitude disambiguation per Sec. III-E). Returns 0 when no
/// candidate qualifies.
int estimate_gamma(double delta_theta_rad, double delta_psi,
                   const GammaConfig& config);

/// Baseline half of the material feature: the stable complex antenna
/// ratio of the baseline (empty-beaker) capture at every selected
/// (subcarrier, pair), subcarrier-major like the feature vector, after
/// the 3-sigma gate and wavelet denoising of Sec. III-C/D. It depends on
/// the baseline alone, so a stream that checks every window against one
/// fixed baseline builds it once (WindowFeatureExtractor). Immutable once
/// built, so concurrent measure() calls are safe.
class BaselineReference {
public:
    /// Cleans and averages the baseline's antenna ratios and bumps the
    /// `feature.baseline_references` counter. Throws on empty pairs or
    /// subcarriers, on a pair or subcarrier outside the baseline's
    /// geometry, and on a ratio that is zero or non-finite (a non-finite
    /// sample, or a reference antenna reading zero on every packet).
    BaselineReference(const csi::CsiSoa& baseline,
                      std::vector<AntennaPair> pairs,
                      std::vector<std::size_t> subcarriers,
                      FeatureConfig config);

    /// Target half: every (subcarrier, pair) measurement of `target`
    /// against this baseline, subcarrier-major. Throws unless `target`
    /// has the baseline's antenna and subcarrier counts.
    ///
    /// Each subcarrier gets cross-pair wrap recovery (Sec. III-E/F).
    /// pairs[0] is the reference pair: the closest pair, whose in-target
    /// path difference is small enough that its DeltaTheta never wraps.
    /// Wider pairs have proportionally larger D1-D2 — larger, better-SNR
    /// amplitude effects — but phase changes beyond +-pi. Their integer
    /// wrap count gamma is recovered from the coarse amplitude
    /// information, as the paper prescribes: the ratio ln(DeltaPsi_p) /
    /// ln(DeltaPsi_ref) estimates the path-difference ratio independently
    /// of the material, which predicts the unwrapped phase
    /// DeltaTheta_ref * ratio to well within half a turn.
    std::vector<MaterialMeasurement> measure(const csi::CsiSoa& target) const;

    const std::vector<AntennaPair>& pairs() const { return pairs_; }
    const std::vector<std::size_t>& subcarriers() const {
        return subcarriers_;
    }
    const FeatureConfig& config() const { return config_; }

private:
    std::size_t antenna_count_ = 0;
    std::size_t subcarrier_count_ = 0;
    std::vector<AntennaPair> pairs_;
    std::vector<std::size_t> subcarriers_;
    FeatureConfig config_;
    std::vector<Complex> ratios_;  ///< subcarriers x pairs, pair-minor
};

/// Feature vector for the classifier: Omega for every (subcarrier, pair)
/// combination, subcarrier-major, with cross-pair wrap recovery applied
/// per subcarrier (pairs[0] is the wrap-free reference pair). This is the
/// row format stored in the material database.
std::vector<double> extract_feature_vector(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers, const FeatureConfig& config);

/// SoA variant: builds the BaselineReference, then applies the target
/// half below. Every batch, serving and streaming feature goes through
/// these two halves.
std::vector<double> extract_feature_vector(
    const csi::CsiSoa& baseline, const csi::CsiSoa& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers, const FeatureConfig& config);

/// Target half: the Omega of every baseline.measure(target) entry.
std::vector<double> extract_feature_vector(const BaselineReference& baseline,
                                           const csi::CsiSoa& target);

}  // namespace wimi::core
