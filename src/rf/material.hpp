// Dielectric material models for the tested liquids and containers.
//
// The paper reduces a liquid to its phase constant beta and attenuation
// constant alpha at the Wi-Fi carrier (Eq. 2–4); both derive from the
// complex relative permittivity. We model each liquid with a single-pole
// Debye relaxation plus an ionic-conductivity loss term:
//
//   eps_r(w) = eps_inf + (eps_static - eps_inf) / (1 + j w tau)
//              - j sigma / (w eps0)
//
// Parameter values are drawn from published dielectric spectroscopy of
// water, aqueous sugar/salt/acid solutions, ethanol–water mixtures, edible
// oil and honey in the low-GHz range. Absolute accuracy is not required for
// the reproduction — what matters is that the resulting (alpha, beta) pairs
// are distinct per liquid, nearly identical for Pepsi vs Coke, and ordered
// in salinity for the saltwater series, which is what drives every
// evaluation figure.
#pragma once

#include <span>
#include <string_view>

#include "common/math.hpp"

namespace wimi::rf {

/// The ten liquids of the paper's evaluation (Sec. IV) plus the three
/// saltwater concentrations of Fig. 16.
enum class Liquid {
    kVinegar,
    kHoney,
    kSoy,
    kMilk,
    kPepsi,
    kLiquor,
    kPureWater,
    kOil,
    kCoke,
    kSweetWater,
    kSaltwater1,  ///< 1.2 g / 100 ml
    kSaltwater2,  ///< 2.7 g / 100 ml
    kSaltwater3,  ///< 5.9 g / 100 ml
};

/// Container wall materials of Fig. 20 (and the paper's metal caveat).
enum class ContainerMaterial {
    kGlass,
    kPlastic,
    kMetal,  ///< reflects the signal; identification is expected to fail
};

/// Debye + conductivity dielectric description of one material.
struct MaterialProperties {
    std::string_view name;
    double eps_inf = 1.0;         ///< high-frequency relative permittivity
    double eps_static = 1.0;      ///< static relative permittivity
    double relaxation_time_s = 0; ///< Debye relaxation time tau [s]
    double conductivity = 0.0;    ///< ionic conductivity sigma [S/m]
    bool conductor = false;       ///< true for metal (blocks transmission)

    /// Complex relative permittivity eps' - j eps'' at `frequency_hz`.
    /// Requires frequency_hz > 0.
    Complex relative_permittivity(double frequency_hz) const;
};

/// Dielectric description of `liquid`.
const MaterialProperties& material_for(Liquid liquid);

/// Dielectric description of a container wall material.
const MaterialProperties& material_for(ContainerMaterial container);

/// Free space (air), the reference medium.
const MaterialProperties& air();

/// Human-readable liquid name, e.g. "Pure water".
std::string_view liquid_name(Liquid liquid);

/// The ten evaluation liquids, in the paper's Fig. 15 order
/// (A=Vinegar ... J=Sweet water).
std::span<const Liquid> all_liquids();

/// Pure water + the three saltwater concentrations (Fig. 16 classes).
std::span<const Liquid> saltwater_series();

}  // namespace wimi::rf
