#include "core/streaming_feature.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "core/wimi.hpp"
#include "csi/soa.hpp"
#include "obs/obs.hpp"

namespace wimi::core {

WindowFeatureExtractor::WindowFeatureExtractor(
    const csi::CsiSeries& baseline, std::vector<AntennaPair> pairs,
    std::vector<std::size_t> subcarriers, FeatureConfig config)
    : reference_(csi::CsiSoa(baseline), std::move(pairs),
                 std::move(subcarriers), config) {}

std::vector<double> WindowFeatureExtractor::extract(
    const csi::CsiSeries& window) const {
    const csi::CsiSoa window_soa(window);
    // Spans the same work as the batch SoA overload's span, less the
    // baseline half that was built once in the constructor.
    WIMI_TRACE_SPAN("feature.extract");
    return extract_feature_vector(reference_, window_soa);
}

WindowFeatureExtractor make_window_extractor(const Wimi& wimi,
                                             const csi::CsiSeries& baseline) {
    ensure(wimi.calibrated(),
           "make_window_extractor: Wimi instance is not calibrated");
    return WindowFeatureExtractor(baseline, wimi.pairs(), wimi.subcarriers(),
                                  wimi.config().feature);
}

double RunningPhaseCalibration::resultant_length() const {
    ensure(count_ > 0,
           "RunningPhaseCalibration::resultant_length: no samples");
    const double n = static_cast<double>(count_);
    const double r =
        std::sqrt(sin_sum_ * sin_sum_ + cos_sum_ * cos_sum_) / n;
    return r > 1.0 ? 1.0 : r;
}

double RunningPhaseCalibration::stddev() const {
    const double r = resultant_length();
    if (r <= 0.0) {
        return std::sqrt(-2.0 * std::log(1e-12));
    }
    return std::sqrt(-2.0 * std::log(r));
}

}  // namespace wimi::core
