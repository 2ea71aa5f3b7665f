#include "csi/quality.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::csi {
namespace {

/// Mean and variance in one pass (Welford).
struct MeanVar {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;

    void add(double x) {
        ++n;
        const double delta = x - mean;
        mean += delta / static_cast<double>(n);
        m2 += delta * (x - mean);
    }

    double variance() const {
        return n > 0 ? m2 / static_cast<double>(n) : 0.0;
    }
};

}  // namespace

std::vector<double> amplitude_cv_per_subcarrier(const CsiSeries& series,
                                                std::size_t antenna) {
    ensure(!series.empty(), "amplitude_cv_per_subcarrier: empty series");
    ensure(antenna < series.antenna_count(),
           "amplitude_cv_per_subcarrier: antenna out of range");
    const std::size_t n_sc = series.subcarrier_count();
    std::vector<MeanVar> stats(n_sc);
    for (const CsiFrame& frame : series.frames) {
        for (std::size_t k = 0; k < n_sc; ++k) {
            stats[k].add(frame.amplitude(antenna, k));
        }
    }
    std::vector<double> cv;
    cv.reserve(n_sc);
    for (const MeanVar& s : stats) {
        cv.push_back(s.mean > 0.0 ? std::sqrt(s.variance()) / s.mean : 0.0);
    }
    return cv;
}

double amplitude_ratio_stability(const CsiSeries& series,
                                 std::size_t antenna1, std::size_t antenna2,
                                 std::size_t subcarrier) {
    ensure(antenna1 != antenna2,
           "amplitude_ratio_stability: antennas must differ");
    // A frame with zero amplitude on the denominator antenna (a quantized
    // capture can hold one) has no ratio; it is skipped like any other
    // non-finite ratio instead of failing the whole probe.
    MeanVar stats;
    for (const CsiFrame& frame : series.frames) {
        const double denom = frame.amplitude(antenna2, subcarrier);
        if (!(denom > 0.0)) {
            continue;
        }
        const double r = frame.amplitude(antenna1, subcarrier) / denom;
        if (std::isfinite(r)) {
            stats.add(r);
        }
    }
    if (stats.n == 0 || stats.mean == 0.0) {
        return 0.0;
    }
    // Normalize to a unit-mean ratio so pairs with different average
    // gains are comparable.
    return stats.variance() / (stats.mean * stats.mean);
}

void record_signal_quality(const CsiSeries& series) {
    if (!WIMI_OBS_ENABLED() || series.empty()) {
        return;
    }
    double cv_mean = 0.0;  // mean CV over (antenna, subcarrier) cells
    double cv_max = 0.0;   // worst cell: one bad chain stands out
    std::size_t cells = 0;
    for (std::size_t a = 0; a < series.antenna_count(); ++a) {
        for (const double cv : amplitude_cv_per_subcarrier(series, a)) {
            WIMI_OBS_HISTOGRAM("quality.amplitude.subcarrier_cv", cv);
            cv_mean += cv;
            cv_max = std::max(cv_max, cv);
            ++cells;
        }
    }
    if (cells > 0) {
        cv_mean /= static_cast<double>(cells);
    }
    WIMI_OBS_GAUGE_SET("quality.amplitude.cv_mean", cv_mean);
    WIMI_OBS_GAUGE_SET("quality.amplitude.cv_max", cv_max);
    for (std::size_t a = 0; a + 1 < series.antenna_count(); ++a) {
        for (std::size_t b = a + 1; b < series.antenna_count(); ++b) {
            WIMI_OBS_HISTOGRAM(
                "quality.pair.ratio_variance",
                amplitude_ratio_stability(series, a, b, 0));
        }
    }
}

}  // namespace wimi::csi
