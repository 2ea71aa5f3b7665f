// Descriptive statistics used across the WiMi pipeline: subcarrier variance
// (paper Eq. 7), 3-sigma outlier gating (Sec. III-C step 1), and the robust
// median noise estimate behind the wavelet threshold (ref. [24]).
//
// Non-finite input policy: the moment-based functions (mean, variance,
// stddev, rmse, RunningStats) follow IEEE-754 arithmetic and propagate
// NaN/Inf into their result. The order-statistic functions (median,
// median_absolute_deviation, robust_sigma) and the sigma outlier gate
// throw wimi::Error on non-finite input instead: sorting a range
// containing NaN is undefined behavior, and a NaN-poisoned outlier band
// would silently pass every sample.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wimi::dsp {

/// Arithmetic mean. Requires a non-empty input.
double mean(std::span<const double> values);

/// Population variance (divide by N), matching the paper's Eq. 7.
double variance(std::span<const double> values);

/// Population standard deviation.
double stddev(std::span<const double> values);

/// Median (average of middle two for even N). Requires a non-empty,
/// all-finite input (wimi::Error otherwise).
double median(std::span<const double> values);

/// Median absolute deviation from the median.
double median_absolute_deviation(std::span<const double> values);

/// Robust sigma estimate sigma_hat = MAD / 0.6745 (Donoho–Johnstone), used
/// for the wavelet noise threshold per the paper's ref. [24].
double robust_sigma(std::span<const double> values);

/// robust_sigma(values), selected inside the caller's `scratch` (at least
/// values.size() samples, overwritten) instead of fresh vectors, so it
/// allocates nothing. Same result, checks and messages.
double robust_sigma(std::span<const double> values,
                    std::span<double> scratch);

/// Root-mean-square error between two equal-length series.
double rmse(std::span<const double> a, std::span<const double> b);

/// Indices of elements outside [mean - k*sigma, mean + k*sigma]. Empty
/// input yields no outliers; non-finite values throw wimi::Error (they
/// would otherwise poison the band and disable the gate silently).
std::vector<std::size_t> sigma_outlier_indices(std::span<const double> values,
                                               double k_sigma);

/// Returns `values` with sigma outliers replaced by the mean of the
/// surviving samples (paper Sec. III-C, outlier removal step).
std::vector<double> reject_sigma_outliers(std::span<const double> values,
                                          double k_sigma);

/// Running accumulator for mean/variance without storing samples
/// (Welford's algorithm); used by long sweeps in the bench harness.
/// Non-finite observations propagate into every later statistic, per
/// the header's non-finite input policy.
class RunningStats {
public:
    /// Adds one observation.
    void add(double value);

    /// Number of observations so far.
    std::size_t count() const { return count_; }

    /// Mean of the observations. Requires count() >= 1.
    double mean() const;

    /// Population variance. Requires count() >= 1.
    double variance() const;

    /// Population standard deviation.
    double stddev() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

}  // namespace wimi::dsp
