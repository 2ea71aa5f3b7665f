#include "core/phase_calibration.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dsp/circular.hpp"
#include "obs/obs.hpp"

namespace wimi::core {

bool operator==(AntennaPair a, AntennaPair b) {
    return a.first == b.first && a.second == b.second;
}

std::vector<AntennaPair> all_antenna_pairs(std::size_t antenna_count) {
    ensure(antenna_count >= 2,
           "all_antenna_pairs: need at least two antennas");
    std::vector<AntennaPair> pairs;
    pairs.reserve(antenna_count * (antenna_count - 1) / 2);
    for (std::size_t i = 0; i < antenna_count; ++i) {
        for (std::size_t j = i + 1; j < antenna_count; ++j) {
            pairs.push_back({i, j});
        }
    }
    return pairs;
}

std::vector<double> phase_difference_series(const csi::CsiSeries& series,
                                            AntennaPair pair,
                                            std::size_t subcarrier) {
    ensure(!series.empty(), "phase_difference_series: empty series");
    ensure(pair.first != pair.second,
           "phase_difference_series: pair must use distinct antennas");
    return series.phase_difference_series(pair.first, pair.second,
                                          subcarrier);
}

double phase_difference_variance(const csi::CsiSeries& series,
                                 AntennaPair pair, std::size_t subcarrier) {
    const auto diffs = phase_difference_series(series, pair, subcarrier);
    const double center = dsp::circular_mean(diffs);
    // Eq. 7 on wrapped deviations: variance of (diff - circular mean),
    // robust to the branch cut at +/- pi.
    double sum_sq = 0.0;
    for (const double d : diffs) {
        const double dev = wrap_to_pi(d - center);
        sum_sq += dev * dev;
    }
    return sum_sq / static_cast<double>(diffs.size());
}

PhaseCalibrationStats phase_calibration_stats(const csi::CsiSeries& series,
                                              AntennaPair pair,
                                              std::size_t subcarrier) {
    WIMI_TRACE_SPAN("calib.phase_stats");
    PhaseCalibrationStats stats;
    const auto raw = series.phase_series(pair.first, subcarrier);
    stats.raw_spread_deg = dsp::angular_spread_deg(raw);
    const auto diffs = phase_difference_series(series, pair, subcarrier);
    stats.diff_spread_deg = dsp::angular_spread_deg(diffs);
    stats.diff_mean_rad = dsp::circular_mean(diffs);
    stats.diff_variance =
        phase_difference_variance(series, pair, subcarrier);
    // Fig. 12 diagnostic: how much differencing tightened the phase.
    WIMI_OBS_HISTOGRAM("calib.phase.raw_spread_deg", stats.raw_spread_deg);
    WIMI_OBS_HISTOGRAM("calib.phase.diff_spread_deg",
                       stats.diff_spread_deg);
    // Quality probe: the RMS residual left after calibration (the noise
    // term of Eq. 6, in degrees). Receiver-side drift inflates this long
    // before the confusion matrix moves.
    WIMI_OBS_HISTOGRAM("quality.phase.residual_rms_deg",
                       rad_to_deg(std::sqrt(stats.diff_variance)));
    return stats;
}

}  // namespace wimi::core
