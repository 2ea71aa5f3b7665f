#include "dsp/stats.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {
namespace {

/// Order statistics sort their input, and std::sort / std::nth_element
/// on a range containing NaN violates strict weak ordering — undefined
/// behavior, not just a wrong answer. Every sorting-based entry point
/// rejects non-finite input up front instead.
void ensure_all_finite(std::span<const double> values, const char* what) {
    if (!simd::all_finite(values)) {
        fail(std::string(what) + ": input contains a non-finite value");
    }
}

/// The one median selection: reorders `values` in place and allocates
/// nothing. Every order statistic below reaches it, so they share its
/// checks and messages; simd::median does the selection.
double select_median(std::span<double> values) {
    ensure(!values.empty(), "median: input must not be empty");
    ensure_all_finite(values, "median");
    return simd::median(values);
}

/// MAD inside `scratch` (values.size() samples): the median of a copy of
/// `values`, then the median of the deviations written over that copy.
double mad_in(std::span<const double> values, std::span<double> scratch) {
    std::copy(values.begin(), values.end(), scratch.begin());
    const double med = select_median(scratch);
    simd::absolute_deviation(values, med, scratch);
    return select_median(scratch);
}

}  // namespace

double mean(std::span<const double> values) {
    ensure(!values.empty(), "mean: input must not be empty");
    return simd::sum(values) / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
    ensure(!values.empty(), "variance: input must not be empty");
    const double mu = mean(values);
    return simd::centered_sum_squares(values, mu) /
           static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
    return std::sqrt(variance(values));
}

double median(std::span<const double> values) {
    std::vector<double> scratch(values.begin(), values.end());
    return select_median(scratch);
}

double median_absolute_deviation(std::span<const double> values) {
    std::vector<double> scratch(values.size());
    return mad_in(values, scratch);
}

double robust_sigma(std::span<const double> values) {
    return median_absolute_deviation(values) / 0.6745;
}

double robust_sigma(std::span<const double> values,
                    std::span<double> scratch) {
    ensure(scratch.size() >= values.size(),
           "robust_sigma: scratch is shorter than the input");
    return mad_in(values, scratch.first(values.size())) / 0.6745;
}

double rmse(std::span<const double> a, std::span<const double> b) {
    ensure(a.size() == b.size() && !a.empty(),
           "rmse: inputs must be equal-length and non-empty");
    return std::sqrt(simd::squared_distance(a, b) /
                     static_cast<double>(a.size()));
}

std::vector<std::size_t> sigma_outlier_indices(std::span<const double> values,
                                               double k_sigma) {
    ensure(k_sigma > 0.0, "sigma_outlier_indices: k_sigma must be positive");
    std::vector<std::size_t> outliers;
    if (values.empty()) {
        return outliers;
    }
    // A single NaN would poison mean/stddev, making both band edges NaN
    // and every comparison false — the gate would silently pass
    // everything. Reject instead of returning "no outliers".
    ensure_all_finite(values, "sigma_outlier_indices");
    const double mu = mean(values);
    const double sigma = stddev(values);
    const double lo = mu - k_sigma * sigma;
    const double hi = mu + k_sigma * sigma;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] < lo || values[i] > hi) {
            outliers.push_back(i);
        }
    }
    return outliers;
}

std::vector<double> reject_sigma_outliers(std::span<const double> values,
                                          double k_sigma) {
    std::vector<double> cleaned(values.begin(), values.end());
    const auto outliers = sigma_outlier_indices(values, k_sigma);
    if (outliers.empty()) {
        return cleaned;
    }
    // Mean over inliers only; replacing (rather than deleting) keeps the
    // series aligned with packet indices for later per-packet processing.
    double sum = 0.0;
    std::size_t kept = 0;
    std::size_t next_outlier = 0;
    for (std::size_t i = 0; i < cleaned.size(); ++i) {
        if (next_outlier < outliers.size() && outliers[next_outlier] == i) {
            ++next_outlier;
            continue;
        }
        sum += cleaned[i];
        ++kept;
    }
    const double inlier_mean =
        kept > 0 ? sum / static_cast<double>(kept) : mean(values);
    for (const std::size_t i : outliers) {
        cleaned[i] = inlier_mean;
    }
    return cleaned;
}

void RunningStats::add(double value) {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double RunningStats::mean() const {
    ensure(count_ > 0, "RunningStats::mean: no observations");
    return mean_;
}

double RunningStats::variance() const {
    ensure(count_ > 0, "RunningStats::variance: no observations");
    return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace wimi::dsp
