// Circular (directional) statistics for phase data.
//
// Raw CSI phases live on the circle, so ordinary mean/variance are
// meaningless for them (Fig. 2 of the paper shows raw phases spread over the
// whole circle). These helpers quantify angular concentration: WiMi uses
// them to report the "angular fluctuation" numbers (2*pi -> ~18 deg -> ~5
// deg) of Figs. 2 and 12 and to validate the calibration stages.
#pragma once

#include <span>

namespace wimi::dsp {

/// Mean direction [rad] of a set of angles, via the mean resultant vector.
/// Requires a non-empty input.
double circular_mean(std::span<const double> angles);

/// Mean resultant length R in [0, 1]; 1 means perfectly concentrated.
double mean_resultant_length(std::span<const double> angles);

/// Circular standard deviation sqrt(-2 ln R) [rad].
double circular_stddev(std::span<const double> angles);

/// Angular spread [deg]: width of the arc covering `coverage` (default 95%)
/// of the samples around the circular mean. This is the "angular
/// fluctuation" the paper quotes (~18 deg after antenna-pair differencing,
/// ~5 deg after good-subcarrier selection).
double angular_spread_deg(std::span<const double> angles,
                          double coverage = 0.95);

}  // namespace wimi::dsp
