// Incremental entry points for the streaming pipeline (DESIGN.md §13).
//
// The batch path recomputes everything from two whole CsiSeries per
// identify() call. A sliding-window stream re-evaluates the same fixed
// baseline against a different target window every hop, so two pieces of
// state are worth keeping across windows:
//
//   * WindowFeatureExtractor — the baseline half of the material feature
//     (core::BaselineReference: the 3-sigma-gated, wavelet-denoised
//     stable antenna ratio at every selected subcarrier and pair) is
//     built once, at construction, and reused for every window. Per
//     window only the target SoA and the target half are computed.
//     Numeric contract: extract() is bit-identical to
//     core::extract_feature_vector(baseline, window, ...) — that call
//     builds the same BaselineReference from the same baseline SoA and
//     applies the same target half — and therefore to Wimi::features on
//     the same inputs. The cached ratios use the SIMD mode in effect at
//     construction, as a lazily cached baseline amplitude plane would.
//
//   * RunningPhaseCalibration — O(1)-per-packet circular accumulator for
//     a phase-difference stream (sum of unit phasors). The windowed
//     pipeline uses it to track the Eq. 7 calibration residual
//     continuously without re-scanning the window, the streaming analog
//     of the batch `quality.calib.residual_deg` probe. It is an
//     *accumulator* (resettable per window), not a bit-parity surface:
//     incremental summation orders floating-point adds differently from
//     the batch circular_mean, so its outputs are quality telemetry,
//     never feature inputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/material_feature.hpp"
#include "core/phase_calibration.hpp"
#include "csi/frame.hpp"

namespace wimi::core {

class Wimi;

/// Fixed-baseline, per-window feature extraction with the baseline half
/// of the feature built once.
class WindowFeatureExtractor {
public:
    /// Builds the baseline half from `baseline` (not kept). Throws on an
    /// empty baseline and wherever BaselineReference throws: empty or
    /// out-of-geometry pairs/subcarriers, or a baseline whose stable
    /// ratio is zero or non-finite — so a baseline that cannot serve the
    /// model fails here, not at every window.
    WindowFeatureExtractor(const csi::CsiSeries& baseline,
                           std::vector<AntennaPair> pairs,
                           std::vector<std::size_t> subcarriers,
                           FeatureConfig config);

    /// Feature vector for one target window — bit-identical to the batch
    /// extract_feature_vector(baseline, window, pairs, subcarriers,
    /// config) call on the same frames. Throws unless the window has the
    /// baseline's antenna and subcarrier counts.
    std::vector<double> extract(const csi::CsiSeries& window) const;

    const std::vector<AntennaPair>& pairs() const {
        return reference_.pairs();
    }
    const std::vector<std::size_t>& subcarriers() const {
        return reference_.subcarriers();
    }
    const FeatureConfig& config() const { return reference_.config(); }

private:
    BaselineReference reference_;
};

/// Builds an extractor from a calibrated Wimi instance: same pairs,
/// subcarriers, and feature settings the facade's identify() would use,
/// so streaming decisions match batch decisions. Throws unless
/// wimi.calibrated().
WindowFeatureExtractor make_window_extractor(const Wimi& wimi,
                                             const csi::CsiSeries& baseline);

/// O(1)-per-sample circular statistics over an angle stream (phase
/// differences): unit-phasor sum with count.
class RunningPhaseCalibration {
public:
    /// Folds one angle [rad] into the accumulator.
    void add(double angle_rad) {
        sin_sum_ += std::sin(angle_rad);
        cos_sum_ += std::cos(angle_rad);
        ++count_;
    }

    std::uint64_t count() const { return count_; }

    /// Mean resultant length R in [0, 1]; requires count() >= 1.
    double resultant_length() const;

    /// Circular standard deviation sqrt(-2 ln R) [rad]; requires
    /// count() >= 1. This is the streaming Eq. 7-style residual.
    double stddev() const;

    /// Starts a fresh window.
    void reset() {
        sin_sum_ = 0.0;
        cos_sum_ = 0.0;
        count_ = 0;
    }

private:
    double sin_sum_ = 0.0;
    double cos_sum_ = 0.0;
    std::uint64_t count_ = 0;
};

}  // namespace wimi::core
