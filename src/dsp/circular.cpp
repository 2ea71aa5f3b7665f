#include "dsp/circular.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"

namespace wimi::dsp {

double circular_mean(std::span<const double> angles) {
    ensure(!angles.empty(), "circular_mean: input must not be empty");
    double sum_sin = 0.0;
    double sum_cos = 0.0;
    for (const double a : angles) {
        sum_sin += std::sin(a);
        sum_cos += std::cos(a);
    }
    return std::atan2(sum_sin, sum_cos);
}

double mean_resultant_length(std::span<const double> angles) {
    ensure(!angles.empty(),
           "mean_resultant_length: input must not be empty");
    double sum_sin = 0.0;
    double sum_cos = 0.0;
    for (const double a : angles) {
        sum_sin += std::sin(a);
        sum_cos += std::cos(a);
    }
    const double n = static_cast<double>(angles.size());
    return std::sqrt(sum_sin * sum_sin + sum_cos * sum_cos) / n;
}

double circular_stddev(std::span<const double> angles) {
    const double r = mean_resultant_length(angles);
    if (r <= 0.0) {
        return std::sqrt(2.0) * kPi;  // maximal dispersion fallback
    }
    return std::sqrt(-2.0 * std::log(r));
}

double angular_spread_deg(std::span<const double> angles, double coverage) {
    ensure(!angles.empty(), "angular_spread_deg: input must not be empty");
    ensure(coverage > 0.0 && coverage <= 1.0,
           "angular_spread_deg: coverage must be in (0, 1]");
    const double center = circular_mean(angles);
    std::vector<double> deviations;
    deviations.reserve(angles.size());
    for (const double a : angles) {
        deviations.push_back(std::abs(wrap_to_pi(a - center)));
    }
    std::sort(deviations.begin(), deviations.end());
    const std::size_t count = deviations.size();
    std::size_t keep = static_cast<std::size_t>(
        std::ceil(coverage * static_cast<double>(count)));
    keep = std::clamp<std::size_t>(keep, 1, count);
    // Arc is symmetric about the mean: total width = 2 * max deviation kept.
    return rad_to_deg(2.0 * deviations[keep - 1]);
}

}  // namespace wimi::dsp
