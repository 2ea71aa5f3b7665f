// CSI phase calibration (paper Sec. III-B).
//
// Raw per-packet CSI phases are corrupted by packet boundary delay,
// sampling frequency offset and carrier frequency offset — all common to
// the antennas of one board (Eq. 5). Differencing the phases of two
// receiver antennas cancels those terms, leaving only the geometric phase
// difference plus zero-mean noise (Eq. 6), which a time average removes.
#pragma once

#include <cstddef>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::core {

/// An unordered receiver antenna pair (indices into the CSI frame).
struct AntennaPair {
    std::size_t first = 0;
    std::size_t second = 1;
};

bool operator==(AntennaPair a, AntennaPair b);

/// All unordered pairs for a receiver with `antenna_count` antennas —
/// p(p-1)/2 combinations (paper Sec. III-F).
std::vector<AntennaPair> all_antenna_pairs(std::size_t antenna_count);

/// Summary of the calibration quality at one subcarrier.
struct PhaseCalibrationStats {
    double raw_spread_deg = 0.0;   ///< angular spread of raw phases (ant 1)
    double diff_spread_deg = 0.0;  ///< spread of antenna-pair differences
    double diff_mean_rad = 0.0;    ///< circular mean of the differences
    double diff_variance = 0.0;    ///< paper Eq. 7 variance of differences
};

/// Per-packet phase-difference series for `pair` at `subcarrier`,
/// wrapped to (-pi, pi].
std::vector<double> phase_difference_series(const csi::CsiSeries& series,
                                            AntennaPair pair,
                                            std::size_t subcarrier);

/// Variance of the phase-difference series around its circular mean —
/// the sigma_k^2 of the paper's Eq. 7 (computed on wrapped deviations so
/// it is immune to 2*pi jumps).
double phase_difference_variance(const csi::CsiSeries& series,
                                 AntennaPair pair, std::size_t subcarrier);

/// Full calibration diagnostics for one subcarrier (drives Figs. 2 and 12).
PhaseCalibrationStats phase_calibration_stats(const csi::CsiSeries& series,
                                              AntennaPair pair,
                                              std::size_t subcarrier);

}  // namespace wimi::core
