// Power delay profile (PDP) analysis of CSI.
//
// The CSI across subcarriers samples the channel's frequency response;
// zero-padded inverse FFT turns it into a delay-domain profile. The paper
// cites this technique (ref. [17], Splicer) for multipath reasoning; here
// it provides channel diagnostics for the simulator — e.g. verifying that
// the library preset really has a longer delay spread than the hall — and
// a tool users can point at recorded traces.
#pragma once

#include <cstddef>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::csi {

/// Delay-domain profile of a capture.
struct PowerDelayProfile {
    /// Power per delay bin, normalized so the strongest bin is 1.
    std::vector<double> power;
    /// Delay resolution [s] per bin (1 / measured bandwidth).
    double bin_spacing_s = 0.0;
};

/// Incoherently averaged PDP over all packets of a series (per-packet
/// random phases cancel in the power domain), one zero-padded IFFT
/// across subcarriers per frame. `fft_size` must be a power of two >= 64
/// (it sets the delay-domain oversampling).
PowerDelayProfile average_power_delay_profile(const CsiSeries& series,
                                              std::size_t antenna,
                                              std::size_t fft_size = 128);

/// RMS delay spread [s] of a profile, computed over bins within
/// `dynamic_range_db` of the peak (noise bins excluded).
double rms_delay_spread(const PowerDelayProfile& profile,
                        double dynamic_range_db = 20.0);

}  // namespace wimi::csi
