// Structure-of-arrays CSI buffer.
//
// CsiSeries stores one CsiFrame per packet — array-of-structures — so
// every per-(antenna, subcarrier) time series the pipeline wants (the
// common access pattern of denoising, ratio averaging, and feature
// extraction) is a strided gather plus an allocation per call
// (CsiSeries::amplitude_series materializes a fresh vector every time).
// CsiSoa transposes the series once into contiguous per-plane layout:
//
//   plane(antenna, subcarrier) = data[(antenna * S + subcarrier) * P .. +P)
//
// with separate real/imag planes built eagerly and amplitude planes
// derived lazily (computed on first request, cached; most pipeline
// stages touch only the selected subcarriers). Planes are
// std::span views into the buffer — zero-copy, unit-stride, and directly
// consumable by the simd kernels.
//
// Numeric contract: with the SIMD vector paths disabled, amplitude
// planes use std::abs(std::complex) and are bit-identical to
// CsiSeries::amplitude_series; with SIMD enabled they use the wide
// sqrt(re^2 + im^2) kernel, which can differ in the last ulp (and in
// principle under/overflow for |H| outside ~[1e-150, 1e150] — far
// beyond quantized CSI magnitudes).
//
// The lazy cache makes const accessors mutate internal state; a CsiSoa
// instance is NOT safe for concurrent first-touch from multiple threads.
// Build and use one per task (the pipeline builds one per series per
// feature extraction, inside a single exec task).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::csi {

class CsiSoa {
public:
    /// Transposes the series (validated: non-empty, consistent frame
    /// dimensions) into contiguous planes. O(packets * antennas *
    /// subcarriers), done once.
    explicit CsiSoa(const CsiSeries& series);

    std::size_t packet_count() const { return packets_; }
    std::size_t antenna_count() const { return antennas_; }
    std::size_t subcarrier_count() const { return subcarriers_; }

    /// Re / Im time series for one (antenna, subcarrier); length
    /// packet_count(). Bounds-checked.
    std::span<const double> real_plane(std::size_t antenna,
                                       std::size_t subcarrier) const;
    std::span<const double> imag_plane(std::size_t antenna,
                                       std::size_t subcarrier) const;

    /// |H| time series; computed on first request and cached.
    std::span<const double> amplitude_plane(std::size_t antenna,
                                            std::size_t subcarrier) const;

private:
    std::size_t plane_index(std::size_t antenna,
                            std::size_t subcarrier) const;

    std::size_t packets_ = 0;
    std::size_t antennas_ = 0;
    std::size_t subcarriers_ = 0;
    std::vector<double> re_;
    std::vector<double> im_;
    mutable std::vector<double> amplitude_;
    mutable std::vector<char> amplitude_ready_;
};

}  // namespace wimi::csi
