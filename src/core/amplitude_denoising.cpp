#include "core/amplitude_denoising.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

#include "common/error.hpp"
#include "dsp/stats.hpp"
#include "obs/obs.hpp"
#include "simd/kernels.hpp"

namespace wimi::core {
namespace {

/// Variance of a series scaled to unit mean, so antennas with different
/// absolute gains are comparable (as in the paper's Fig. 8 y-axis).
double normalized_variance(std::span<const double> values) {
    const double mu = dsp::mean(values);
    if (mu == 0.0) {
        return 0.0;
    }
    std::vector<double> scaled(values.size());
    simd::divide(values, mu, scaled);  // true division — v/mu != v*(1/mu)
    return dsp::variance(scaled);
}

}  // namespace

std::vector<double> denoise_amplitude_series(
    std::span<const double> amplitudes,
    const AmplitudeDenoiseConfig& config) {
    ensure(!amplitudes.empty(), "denoise_amplitude_series: empty input");
    if (WIMI_OBS_ENABLED()) {
        WIMI_OBS_COUNT(
            "denoise.outliers_clipped",
            dsp::sigma_outlier_indices(amplitudes, config.outlier_k_sigma)
                .size());
    }
    auto cleaned =
        dsp::reject_sigma_outliers(amplitudes, config.outlier_k_sigma);
    if (config.remove_impulses &&
        cleaned.size() >= 8) {  // wavelet stage needs a minimum length
        if (WIMI_OBS_ENABLED()) {
            dsp::WaveletDenoiseReport report;
            cleaned = dsp::wavelet_correlation_denoise(cleaned,
                                                       config.wavelet,
                                                       &report);
            std::size_t iterations = 0;
            for (const std::size_t per_scale :
                 report.iterations_per_scale) {
                iterations += per_scale;
            }
            WIMI_OBS_HISTOGRAM("denoise.wavelet.iterations",
                               static_cast<double>(iterations));
        } else {
            cleaned =
                dsp::wavelet_correlation_denoise(cleaned, config.wavelet);
        }
        // Amplitudes are physically positive; the wavelet reconstruction
        // may undershoot after removing a large negative impulse, so floor
        // the output at a small fraction of the series median.
        const double floor_value =
            1e-3 * std::max(dsp::median(cleaned), 0.0) + 1e-12;
        for (double& v : cleaned) {
            v = std::max(v, floor_value);
        }
    }
    return cleaned;
}

namespace {

std::vector<double> ratio_of_denoised(std::span<const double> first_raw,
                                      std::span<const double> second_raw,
                                      const AmplitudeDenoiseConfig& config) {
    const auto first = denoise_amplitude_series(first_raw, config);
    const auto second = denoise_amplitude_series(second_raw, config);
    for (const double d : second) {
        ensure(d > 0.0, "denoised_amplitude_ratio: nonpositive denominator");
    }
    std::vector<double> ratio(first.size());
    simd::divide(first, second, ratio);
    return ratio;
}

}  // namespace

std::vector<double> denoised_amplitude_ratio(
    const csi::CsiSeries& series, AntennaPair pair, std::size_t subcarrier,
    const AmplitudeDenoiseConfig& config) {
    return ratio_of_denoised(
        series.amplitude_series(pair.first, subcarrier),
        series.amplitude_series(pair.second, subcarrier), config);
}

std::vector<double> denoised_amplitude_ratio(
    const csi::CsiSoa& soa, AntennaPair pair, std::size_t subcarrier,
    const AmplitudeDenoiseConfig& config) {
    return ratio_of_denoised(soa.amplitude_plane(pair.first, subcarrier),
                             soa.amplitude_plane(pair.second, subcarrier),
                             config);
}

namespace {

void count_masked(const std::vector<bool>& mask) {
    if (WIMI_OBS_ENABLED()) {
        const auto masked = static_cast<std::uint64_t>(
            std::count(mask.begin(), mask.end(), false));
        WIMI_OBS_COUNT("denoise.outliers_clipped", masked);
    }
}

}  // namespace

std::vector<bool> inlier_packet_mask(const csi::CsiSoa& soa,
                                     AntennaPair pair,
                                     std::size_t subcarrier,
                                     double k_sigma) {
    std::vector<bool> mask(soa.packet_count(), true);
    for (const std::size_t antenna : {pair.first, pair.second}) {
        const auto amplitudes = soa.amplitude_plane(antenna, subcarrier);
        for (const std::size_t i :
             dsp::sigma_outlier_indices(amplitudes, k_sigma)) {
            mask[i] = false;
        }
    }
    count_masked(mask);
    return mask;
}

namespace {

AmplitudeVarianceReport variance_report_from_planes(
    std::size_t n_sc,
    const std::function<std::span<const double>(std::size_t, std::size_t)>&
        amplitude) {
    AmplitudeVarianceReport report;
    report.antenna_first.reserve(n_sc);
    report.antenna_second.reserve(n_sc);
    report.ratio.reserve(n_sc);
    for (std::size_t k = 0; k < n_sc; ++k) {
        const auto a1 = amplitude(0, k);
        const auto a2 = amplitude(1, k);
        report.antenna_first.push_back(normalized_variance(a1));
        report.antenna_second.push_back(normalized_variance(a2));
        // Packets whose reference amplitude quantized to zero (deep fade
        // at int8 resolution) carry no ratio; skip them rather than fail.
        std::vector<double> ratio;
        ratio.reserve(a1.size());
        for (std::size_t m = 0; m < a1.size(); ++m) {
            if (a2[m] > 0.0) {
                ratio.push_back(a1[m] / a2[m]);
            }
        }
        report.ratio.push_back(ratio.empty() ? 0.0
                                             : normalized_variance(ratio));
    }
    return report;
}

}  // namespace

AmplitudeVarianceReport amplitude_variance_report(
    const csi::CsiSeries& series, AntennaPair pair) {
    ensure(!series.empty(), "amplitude_variance_report: empty series");
    std::vector<double> buf1;
    std::vector<double> buf2;
    return variance_report_from_planes(
        series.subcarrier_count(),
        [&](std::size_t which, std::size_t k) -> std::span<const double> {
            auto& buf = (which == 0) ? buf1 : buf2;
            buf = series.amplitude_series(
                which == 0 ? pair.first : pair.second, k);
            return buf;
        });
}

AmplitudeVarianceReport amplitude_variance_report(const csi::CsiSoa& soa,
                                                  AntennaPair pair) {
    return variance_report_from_planes(
        soa.subcarrier_count(),
        [&](std::size_t which, std::size_t k) {
            return soa.amplitude_plane(
                which == 0 ? pair.first : pair.second, k);
        });
}

}  // namespace wimi::core
