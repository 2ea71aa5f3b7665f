// CSI frame and series containers.
//
// A CsiFrame is what one received packet yields after CSI extraction: a
// complex channel estimate per (receiver antenna, subcarrier), plus packet
// metadata. A CsiSeries is the time-ordered collection of frames one
// measurement produces (the paper collects CSI every 10 ms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"

namespace wimi::csi {

/// CSI of a single received packet.
class CsiFrame {
public:
    CsiFrame() = default;

    /// Creates a zeroed frame with the given dimensions. Both counts must
    /// be >= 1.
    CsiFrame(std::size_t antenna_count, std::size_t subcarrier_count);

    std::size_t antenna_count() const { return antenna_count_; }
    std::size_t subcarrier_count() const { return subcarrier_count_; }

    /// Mutable access to the entry for (antenna, subcarrier); bounds are
    /// checked.
    Complex& at(std::size_t antenna, std::size_t subcarrier);
    const Complex& at(std::size_t antenna, std::size_t subcarrier) const;

    /// Amplitude |H| at (antenna, subcarrier).
    double amplitude(std::size_t antenna, std::size_t subcarrier) const;

    /// Phase arg(H) in (-pi, pi] at (antenna, subcarrier).
    double phase(std::size_t antenna, std::size_t subcarrier) const;

    /// Packet timestamp [s] relative to the start of the capture.
    double timestamp_s = 0.0;

    /// Receiver RSSI report [dBm-like arbitrary scale], as the 5300 gives.
    double rssi_dbm = 0.0;

    /// True iff every stored value — timestamp, RSSI, and all complex
    /// components — is finite (no NaN/Inf). Deserialization and
    /// quantization reject frames that fail this, so corrupt doubles
    /// fail loudly instead of propagating through the pipeline.
    bool is_finite() const;

    /// Flat row-major storage (antenna-major), exposed for serialization.
    std::span<const Complex> raw() const { return data_; }
    std::span<Complex> raw() { return data_; }

private:
    std::size_t antenna_count_ = 0;
    std::size_t subcarrier_count_ = 0;
    std::vector<Complex> data_;
};

/// Time-ordered CSI frames from one measurement window.
struct CsiSeries {
    std::vector<CsiFrame> frames;

    std::size_t packet_count() const { return frames.size(); }
    bool empty() const { return frames.empty(); }

    /// Antenna count of the frames (0 when empty). All frames in a valid
    /// series share dimensions; validate() checks this.
    std::size_t antenna_count() const;
    std::size_t subcarrier_count() const;

    /// Throws wimi::Error unless all frames share dimensions.
    void validate() const;

    /// Amplitude time series |H_m| for one (antenna, subcarrier) across
    /// all packets m.
    std::vector<double> amplitude_series(std::size_t antenna,
                                         std::size_t subcarrier) const;

    /// Phase time series for one (antenna, subcarrier).
    std::vector<double> phase_series(std::size_t antenna,
                                     std::size_t subcarrier) const;

    /// Per-packet phase difference arg(H_a1) - arg(H_a2), wrapped to
    /// (-pi, pi], for one subcarrier — the paper's Eq. 6 input.
    std::vector<double> phase_difference_series(std::size_t antenna1,
                                                std::size_t antenna2,
                                                std::size_t subcarrier) const;

};

}  // namespace wimi::csi
