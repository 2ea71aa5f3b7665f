// Radix-2 FFT.
//
// Used by the channel diagnostics (csi::power_delay_profile): CSI across
// subcarriers is the channel's frequency response, and its inverse FFT is
// the power delay profile — the tool the paper's ref. [17] (Splicer) uses
// to reason about multipath, and a useful way to inspect the simulated
// channel's delay structure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math.hpp"

namespace wimi::dsp {

/// True when n is a power of two (and nonzero).
bool is_power_of_two(std::size_t n);

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a
/// power of two.
void fft_in_place(std::vector<Complex>& data);

/// Inverse FFT (normalized by 1/N).
void ifft_in_place(std::vector<Complex>& data);

/// Out-of-place convenience wrappers.
std::vector<Complex> fft(std::span<const Complex> input);
std::vector<Complex> ifft(std::span<const Complex> input);

}  // namespace wimi::dsp
