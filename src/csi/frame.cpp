#include "csi/frame.hpp"

#include <cmath>

#include "common/error.hpp"

namespace wimi::csi {

CsiFrame::CsiFrame(std::size_t antenna_count, std::size_t subcarrier_count)
    : antenna_count_(antenna_count),
      subcarrier_count_(subcarrier_count),
      data_(antenna_count * subcarrier_count) {
    ensure(antenna_count >= 1, "CsiFrame: need at least one antenna");
    ensure(subcarrier_count >= 1, "CsiFrame: need at least one subcarrier");
}

Complex& CsiFrame::at(std::size_t antenna, std::size_t subcarrier) {
    ensure(antenna < antenna_count_, "CsiFrame: antenna out of range");
    ensure(subcarrier < subcarrier_count_,
           "CsiFrame: subcarrier out of range");
    return data_[antenna * subcarrier_count_ + subcarrier];
}

const Complex& CsiFrame::at(std::size_t antenna,
                            std::size_t subcarrier) const {
    ensure(antenna < antenna_count_, "CsiFrame: antenna out of range");
    ensure(subcarrier < subcarrier_count_,
           "CsiFrame: subcarrier out of range");
    return data_[antenna * subcarrier_count_ + subcarrier];
}

double CsiFrame::amplitude(std::size_t antenna,
                           std::size_t subcarrier) const {
    return std::abs(at(antenna, subcarrier));
}

double CsiFrame::phase(std::size_t antenna, std::size_t subcarrier) const {
    return std::arg(at(antenna, subcarrier));
}

bool CsiFrame::is_finite() const {
    if (!std::isfinite(timestamp_s) || !std::isfinite(rssi_dbm)) {
        return false;
    }
    for (const Complex& h : data_) {
        if (!std::isfinite(h.real()) || !std::isfinite(h.imag())) {
            return false;
        }
    }
    return true;
}

std::size_t CsiSeries::antenna_count() const {
    return frames.empty() ? 0 : frames.front().antenna_count();
}

std::size_t CsiSeries::subcarrier_count() const {
    return frames.empty() ? 0 : frames.front().subcarrier_count();
}

void CsiSeries::validate() const {
    if (frames.empty()) {
        return;
    }
    const std::size_t n_ant = frames.front().antenna_count();
    const std::size_t n_sc = frames.front().subcarrier_count();
    for (const auto& frame : frames) {
        ensure(frame.antenna_count() == n_ant &&
                   frame.subcarrier_count() == n_sc,
               "CsiSeries: frames have inconsistent dimensions");
    }
}

std::vector<double> CsiSeries::amplitude_series(
    std::size_t antenna, std::size_t subcarrier) const {
    std::vector<double> out;
    out.reserve(frames.size());
    for (const auto& frame : frames) {
        out.push_back(frame.amplitude(antenna, subcarrier));
    }
    return out;
}

std::vector<double> CsiSeries::phase_series(std::size_t antenna,
                                            std::size_t subcarrier) const {
    std::vector<double> out;
    out.reserve(frames.size());
    for (const auto& frame : frames) {
        out.push_back(frame.phase(antenna, subcarrier));
    }
    return out;
}

std::vector<double> CsiSeries::phase_difference_series(
    std::size_t antenna1, std::size_t antenna2,
    std::size_t subcarrier) const {
    std::vector<double> out;
    out.reserve(frames.size());
    for (const auto& frame : frames) {
        out.push_back(wrap_to_pi(frame.phase(antenna1, subcarrier) -
                                 frame.phase(antenna2, subcarrier)));
    }
    return out;
}

}  // namespace wimi::csi
