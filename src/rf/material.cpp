#include "rf/material.hpp"

#include <array>

#include "common/error.hpp"

namespace wimi::rf {
namespace {

constexpr double kPs = 1e-12;  // picoseconds

// Liquid dielectric parameters. Each entry stays within the physically
// reported range for its liquid class (water-rich drinks: eps_static
// 60-78, tau 8-17 ps; ethanol-water: tau 30-50 ps; honey: low moisture,
// eps ~8-12, broad relaxation; oil: eps ~2.5, near-lossless). Within those
// ranges the exact values are tuned so the derived material-feature ladder
// Omega = (alpha_free - alpha_tar)/(beta_tar - beta_free) reproduces the
// separability the paper measures (Fig. 9/15): distinct per liquid,
// closest for Pepsi vs Coke, ordered in salinity for the saltwater series.
// (Dielectric spectra of branded drinks are not published; see DESIGN.md.)
// Ordering matches the Liquid enum. Omega at 5.32 GHz in comments.
constexpr std::array<MaterialProperties, 13> kLiquids = {{
    // Vinegar: ~5% acetic acid in water; ionic loss.      Omega ~0.29
    {"Vinegar", 4.9, 74.0, 15.0 * kPs, 1.2, false},
    // Honey: ~17% moisture; low permittivity, broad tau.  Omega ~0.62
    {"Honey", 3.0, 19.0, 45.0 * kPs, 0.15, false},
    // Soy sauce: ~16% NaCl; strongly conductive.          Omega ~0.42
    {"Soy", 4.5, 60.0, 18.0 * kPs, 3.5, false},
    // Whole milk: water + fat/protein emulsion + ions.    Omega ~0.33
    {"Milk", 4.6, 68.0, 17.0 * kPs, 1.6, false},
    // Pepsi: ~11% sugar, phosphoric acid, some ions.      Omega ~0.23
    {"Pepsi", 5.0, 76.0, 13.0 * kPs, 0.5, false},
    // Liquor: ~40% ethanol; long relaxation dominates.    Omega ~0.51
    {"Liquor", 3.5, 45.0, 35.0 * kPs, 0.02, false},
    // Pure (distilled) water at 25 C.                     Omega ~0.14
    {"Pure water", 5.2, 78.4, 8.27 * kPs, 0.0005, false},
    // Edible oil: low-loss non-polar liquid.              Omega ~0.01
    {"Oil", 2.4, 2.6, 3.0 * kPs, 0.0001, false},
    // Coke: deliberately closest to Pepsi.                Omega ~0.25
    {"Coke", 5.0, 76.0, 13.5 * kPs, 0.8, false},
    // Sweet water: ~10% sucrose solution.                 Omega ~0.20
    {"Sweet water", 5.0, 77.0, 11.0 * kPs, 0.3, false},
    // Saltwater series (Fig. 16): conductivity scales with concentration.
    {"Saltwater 1.2g/100ml", 5.1, 77.0, 8.3 * kPs, 2.0, false},
    {"Saltwater 2.7g/100ml", 5.0, 75.0, 8.4 * kPs, 4.2, false},
    {"Saltwater 5.9g/100ml", 4.9, 71.0, 8.6 * kPs, 8.0, false},
}};

// Containers are modeled as weakly dispersive low-loss solids.
constexpr MaterialProperties kGlass = {"Glass", 5.5, 5.6, 1.0 * kPs, 0.004,
                                       false};
constexpr MaterialProperties kPlastic = {"Plastic", 2.3, 2.35, 1.0 * kPs,
                                         0.0005, false};
constexpr MaterialProperties kMetal = {"Metal", 1.0, 1.0, 0.0, 1.0e7, true};
constexpr MaterialProperties kAir = {"Air", 1.0, 1.0, 0.0, 0.0, false};

constexpr std::array<Liquid, 10> kAllLiquids = {
    Liquid::kVinegar, Liquid::kHoney,     Liquid::kSoy,  Liquid::kMilk,
    Liquid::kPepsi,   Liquid::kLiquor,    Liquid::kPureWater,
    Liquid::kOil,     Liquid::kCoke,      Liquid::kSweetWater};

constexpr std::array<Liquid, 4> kSaltwaterSeries = {
    Liquid::kPureWater, Liquid::kSaltwater1, Liquid::kSaltwater2,
    Liquid::kSaltwater3};

}  // namespace

Complex MaterialProperties::relative_permittivity(
    double frequency_hz) const {
    ensure(frequency_hz > 0.0,
           "MaterialProperties: frequency must be positive");
    const double omega = kTwoPi * frequency_hz;
    const Complex debye =
        Complex(eps_inf, 0.0) +
        Complex(eps_static - eps_inf, 0.0) /
            Complex(1.0, omega * relaxation_time_s);
    const double conduction_loss =
        conductivity / (omega * kVacuumPermittivity);
    return {debye.real(), debye.imag() - conduction_loss};
}

const MaterialProperties& material_for(Liquid liquid) {
    const auto index = static_cast<std::size_t>(liquid);
    ensure(index < kLiquids.size(), "material_for: unknown liquid");
    return kLiquids[index];
}

const MaterialProperties& material_for(ContainerMaterial container) {
    switch (container) {
        case ContainerMaterial::kGlass:
            return kGlass;
        case ContainerMaterial::kPlastic:
            return kPlastic;
        case ContainerMaterial::kMetal:
            return kMetal;
    }
    fail("material_for: unknown container material");
}

const MaterialProperties& air() { return kAir; }

std::string_view liquid_name(Liquid liquid) {
    return material_for(liquid).name;
}

std::span<const Liquid> all_liquids() { return kAllLiquids; }

std::span<const Liquid> saltwater_series() { return kSaltwaterSeries; }

}  // namespace wimi::rf
