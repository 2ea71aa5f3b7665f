#include "rf/propagation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace wimi::rf {

PropagationConstants propagation_constants(Complex eps_r,
                                           double frequency_hz) {
    ensure(frequency_hz > 0.0,
           "propagation_constants: frequency must be positive");
    ensure(eps_r.real() > 0.0,
           "propagation_constants: Re(eps_r) must be positive");
    const double k0 = kTwoPi * frequency_hz / kSpeedOfLight;
    // gamma = j k0 sqrt(eps_r); with eps_r = eps' - j eps'' the principal
    // square root a - j b (a, b >= 0) gives alpha = k0 b, beta = k0 a.
    const Complex root = std::sqrt(eps_r);
    PropagationConstants out;
    out.alpha_np_per_m = -k0 * root.imag();
    out.beta_rad_per_m = k0 * root.real();
    ensure(out.alpha_np_per_m >= 0.0,
           "propagation_constants: negative attenuation (gain medium?)");
    return out;
}

PropagationConstants propagation_constants(const MaterialProperties& material,
                                           double frequency_hz) {
    return propagation_constants(
        material.relative_permittivity(frequency_hz), frequency_hz);
}

double free_space_wavelength(double frequency_hz) {
    return kSpeedOfLight / frequency_hz;
}

double theoretical_material_feature(const MaterialProperties& material,
                                    double frequency_hz) {
    const auto target = propagation_constants(material, frequency_hz);
    const auto free = propagation_constants(air(), frequency_hz);
    const double beta_excess = target.beta_rad_per_m - free.beta_rad_per_m;
    ensure(std::abs(beta_excess) > 1e-12,
           "theoretical_material_feature: material indistinguishable from "
           "free space");
    return (target.alpha_np_per_m - free.alpha_np_per_m) / beta_excess;
}

Complex excess_transmission(const MaterialProperties& material,
                            double distance_m, double frequency_hz) {
    ensure(distance_m >= 0.0,
           "excess_transmission: distance must be non-negative");
    const auto target = propagation_constants(material, frequency_hz);
    const auto free = propagation_constants(air(), frequency_hz);
    const double alpha_excess =
        target.alpha_np_per_m - free.alpha_np_per_m;
    const double beta_excess = target.beta_rad_per_m - free.beta_rad_per_m;
    return std::exp(
        Complex(-alpha_excess * distance_m, -beta_excess * distance_m));
}

}  // namespace wimi::rf
