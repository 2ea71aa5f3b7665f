// Plane-wave propagation constants in lossy media.
//
// For a non-magnetic medium with complex relative permittivity eps_r the
// propagation constant is gamma = j (w/c) sqrt(eps_r) = alpha + j beta,
// where alpha [Np/m] is the paper's attenuation constant and beta [rad/m]
// its phase constant (Sec. II-B). The theoretical material feature
// Omega = (alpha_free - alpha_tar) / (beta_tar - beta_free) of Eq. 21 is
// computed here as ground truth against which the pipeline's measured
// feature is validated.
#pragma once

#include "common/math.hpp"
#include "rf/material.hpp"

namespace wimi::rf {

/// alpha [Np/m] and beta [rad/m] of a medium at one frequency.
struct PropagationConstants {
    double alpha_np_per_m = 0.0;
    double beta_rad_per_m = 0.0;
};

/// Constants from a complex relative permittivity. Requires
/// frequency_hz > 0 and Re(eps_r) > 0.
PropagationConstants propagation_constants(Complex eps_r,
                                           double frequency_hz);

/// Convenience overload evaluating the material's permittivity first.
PropagationConstants propagation_constants(const MaterialProperties& material,
                                           double frequency_hz);

/// Free-space wavelength [m].
double free_space_wavelength(double frequency_hz);

/// The theoretical size-independent material feature of paper Eq. 21:
/// Omega = (alpha_tar - alpha_free) / (beta_tar - beta_free), positive for
/// every lossy retarding liquid. (The paper's Eq. 21 prints the numerator
/// as alpha_free - alpha_tar, but its own Eq. 19–20 algebra — and its
/// positive plotted features in Fig. 9 — give the sign used here.)
/// Requires the material to differ from free space in beta.
double theoretical_material_feature(const MaterialProperties& material,
                                    double frequency_hz);

/// One-way field transmission factor exp(-(alpha + j beta) d) relative to
/// the same distance of free space: exp(-(d) ((alpha_t - alpha_f) +
/// j (beta_t - beta_f))). This is the multiplicative change the target
/// imposes on the LoS ray (paper Eq. 2–4).
Complex excess_transmission(const MaterialProperties& material,
                            double distance_m, double frequency_hz);

}  // namespace wimi::rf
