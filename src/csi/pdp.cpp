#include "csi/pdp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "csi/subcarrier.hpp"
#include "dsp/fft.hpp"

namespace wimi::csi {
namespace {

std::vector<double> raw_profile(const CsiFrame& frame, std::size_t antenna,
                                std::size_t fft_size) {
    ensure(antenna < frame.antenna_count(),
           "average_power_delay_profile: antenna out of range");
    ensure(frame.subcarrier_count() == kSubcarrierCount,
           "average_power_delay_profile: frame does not use the Intel "
           "5300 layout");
    ensure(dsp::is_power_of_two(fft_size) && fft_size >= 64,
           "average_power_delay_profile: fft_size must be a power of two "
           ">= 64 (the 20 MHz grid spans logical indices -28..28)");
    // Place each reported subcarrier at its *logical* frequency position
    // (units of the subcarrier spacing, negative offsets wrapping to the
    // top of the FFT grid). The Intel grouping skips most odd indices;
    // the unreported bins stay zero.
    std::vector<Complex> spectrum(fft_size, Complex(0.0, 0.0));
    const auto& offsets = intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < frame.subcarrier_count(); ++k) {
        const std::size_t position = static_cast<std::size_t>(
            (offsets[k] + static_cast<int>(fft_size)) %
            static_cast<int>(fft_size));
        spectrum[position] = frame.at(antenna, k);
    }
    const auto impulse = dsp::ifft(spectrum);
    std::vector<double> power(fft_size);
    for (std::size_t i = 0; i < fft_size; ++i) {
        power[i] = std::norm(impulse[i]);
    }
    return power;
}

PowerDelayProfile finalize(std::vector<double> power,
                           std::size_t fft_size) {
    PowerDelayProfile profile;
    const double peak = *std::max_element(power.begin(), power.end());
    ensure(peak > 0.0, "average_power_delay_profile: all-zero CSI");
    for (double& p : power) {
        p /= peak;
    }
    profile.power = std::move(power);
    // Measured bandwidth: the reported subcarriers span the 20 MHz
    // channel; delay resolution of the zero-padded IFFT is 1 / (N * df)
    // per bin with the padding interpolating between true resolution
    // cells.
    profile.bin_spacing_s =
        1.0 / (static_cast<double>(fft_size) * kSubcarrierSpacingHz);
    return profile;
}

}  // namespace

PowerDelayProfile average_power_delay_profile(const CsiSeries& series,
                                              std::size_t antenna,
                                              std::size_t fft_size) {
    ensure(!series.empty(),
           "average_power_delay_profile: empty series");
    std::vector<double> accumulated(fft_size, 0.0);
    for (const auto& frame : series.frames) {
        const auto power = raw_profile(frame, antenna, fft_size);
        for (std::size_t i = 0; i < fft_size; ++i) {
            accumulated[i] += power[i];
        }
    }
    return finalize(std::move(accumulated), fft_size);
}

double rms_delay_spread(const PowerDelayProfile& profile,
                        double dynamic_range_db) {
    ensure(!profile.power.empty(), "rms_delay_spread: empty profile");
    ensure(dynamic_range_db > 0.0,
           "rms_delay_spread: dynamic range must be positive");
    const double floor = std::pow(10.0, -dynamic_range_db / 10.0);

    // First moment (mean delay) over bins above the floor. Delays beyond
    // half the aliased window are ignored (they are the negative-delay
    // image of the periodic IFFT).
    const std::size_t usable = profile.power.size() / 2;
    double total = 0.0;
    double mean = 0.0;
    for (std::size_t i = 0; i < usable; ++i) {
        if (profile.power[i] >= floor) {
            total += profile.power[i];
            mean += profile.power[i] * static_cast<double>(i);
        }
    }
    ensure(total > 0.0, "rms_delay_spread: no bins above the floor");
    mean /= total;

    double second = 0.0;
    for (std::size_t i = 0; i < usable; ++i) {
        if (profile.power[i] >= floor) {
            const double d = static_cast<double>(i) - mean;
            second += profile.power[i] * d * d;
        }
    }
    return std::sqrt(second / total) * profile.bin_spacing_s;
}

}  // namespace wimi::csi
