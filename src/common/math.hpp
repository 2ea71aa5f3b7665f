// Shared mathematical constants and small numeric helpers.
#pragma once

#include <cmath>
#include <complex>

namespace wimi {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Vacuum permittivity [F/m].
inline constexpr double kVacuumPermittivity = 8.8541878128e-12;

/// Pi with full double precision.
inline constexpr double kPi = 3.141592653589793238462643383279502884;

/// Two pi.
inline constexpr double kTwoPi = 2.0 * kPi;

/// Complex sample type used throughout the CSI pipeline.
using Complex = std::complex<double>;

/// Wraps an angle [rad] to (-pi, pi].
inline double wrap_to_pi(double angle) {
    angle = std::fmod(angle + kPi, kTwoPi);
    if (angle <= 0.0) {
        angle += kTwoPi;
    }
    return angle - kPi;
}

/// Radians -> degrees.
inline constexpr double rad_to_deg(double radians) {
    return radians * 180.0 / kPi;
}

/// Decibels -> linear amplitude ratio.
inline double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

/// Clamps x into [lo, hi].
inline constexpr double clamp(double x, double lo, double hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace wimi
