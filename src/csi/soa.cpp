#include "csi/soa.hpp"

#include "common/error.hpp"
#include "simd/kernels.hpp"

namespace wimi::csi {

CsiSoa::CsiSoa(const CsiSeries& series) {
    ensure(!series.empty(), "CsiSoa: empty series");
    series.validate();
    packets_ = series.packet_count();
    antennas_ = series.antenna_count();
    subcarriers_ = series.subcarrier_count();

    const std::size_t planes = antennas_ * subcarriers_;
    re_.resize(planes * packets_);
    im_.resize(planes * packets_);
    amplitude_.resize(planes * packets_);
    amplitude_ready_.assign(planes, 0);

    // Transpose frame-major -> plane-major. Frames store antenna-major
    // rows of subcarriers, so walk each frame once in storage order.
    for (std::size_t m = 0; m < packets_; ++m) {
        const auto raw = series.frames[m].raw();
        for (std::size_t a = 0; a < antennas_; ++a) {
            for (std::size_t k = 0; k < subcarriers_; ++k) {
                const Complex h = raw[a * subcarriers_ + k];
                const std::size_t base = (a * subcarriers_ + k) * packets_;
                re_[base + m] = h.real();
                im_[base + m] = h.imag();
            }
        }
    }
}

std::size_t CsiSoa::plane_index(std::size_t antenna,
                                std::size_t subcarrier) const {
    ensure(antenna < antennas_, "CsiSoa: antenna out of range");
    ensure(subcarrier < subcarriers_, "CsiSoa: subcarrier out of range");
    return antenna * subcarriers_ + subcarrier;
}

std::span<const double> CsiSoa::real_plane(std::size_t antenna,
                                           std::size_t subcarrier) const {
    return {re_.data() + plane_index(antenna, subcarrier) * packets_,
            packets_};
}

std::span<const double> CsiSoa::imag_plane(std::size_t antenna,
                                           std::size_t subcarrier) const {
    return {im_.data() + plane_index(antenna, subcarrier) * packets_,
            packets_};
}

std::span<const double> CsiSoa::amplitude_plane(
    std::size_t antenna, std::size_t subcarrier) const {
    const std::size_t plane = plane_index(antenna, subcarrier);
    const std::size_t base = plane * packets_;
    if (!amplitude_ready_[plane]) {
        simd::amplitude({re_.data() + base, packets_},
                        {im_.data() + base, packets_},
                        {amplitude_.data() + base, packets_});
        amplitude_ready_[plane] = 1;
    }
    return {amplitude_.data() + base, packets_};
}

}  // namespace wimi::csi
