// Capture-level signal-quality probes.
//
// Receiver-side effects (AGC steps, packet detection jitter, a failing
// antenna chain) reshape CSI statistics long before they show up as a
// drop in final identification accuracy. These probes boil a capture
// down to a few comparable numbers — per-subcarrier amplitude
// coefficient of variation and antenna-pair ratio stability — and feed
// them into the obs registry so a degraded front end is visible in the
// `wimi.metrics.v1` report and gated by `wimi_regress`, not discovered
// weeks later in a confusion matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::csi {

/// Per-subcarrier amplitude coefficient of variation (stddev / mean over
/// packets) for one antenna. A healthy static capture sits in the few-%
/// range; AGC trouble or clipping pushes individual subcarriers far out.
/// Subcarriers with zero mean amplitude report a CV of 0.
std::vector<double> amplitude_cv_per_subcarrier(const CsiSeries& series,
                                                std::size_t antenna);

/// Per-packet stability of the amplitude ratio |H_a| / |H_b| between two
/// antennas at one subcarrier, as a unit-mean variance (the Sec. III-D
/// quantity the material feature is built on). Lower is more stable.
/// Frames without a finite ratio (zero amplitude on antenna2) are
/// skipped.
double amplitude_ratio_stability(const CsiSeries& series,
                                 std::size_t antenna1, std::size_t antenna2,
                                 std::size_t subcarrier);

/// Records the capture's quality probes into the global obs registry:
///   histogram quality.amplitude.subcarrier_cv   one sample per cell
///   gauge     quality.amplitude.cv_mean / cv_max
///   histogram quality.pair.ratio_variance       per pair, subcarrier 0
/// No-op (beyond the digest computation guard) when obs is disabled.
void record_signal_quality(const CsiSeries& series);

}  // namespace wimi::csi
