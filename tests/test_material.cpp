// Tests for the dielectric material library.
#include "rf/material.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "csi/subcarrier.hpp"

namespace wimi::rf {
namespace {

constexpr double kF = csi::kDefaultCenterFrequencyHz;

TEST(Material, WaterPermittivityAt5GHz) {
    const Complex eps =
        material_for(Liquid::kPureWater).relative_permittivity(kF);
    // Literature: water at 25 C, ~5.3 GHz: eps' ~ 72-75, eps'' ~ 17-20.
    EXPECT_GT(eps.real(), 70.0);
    EXPECT_LT(eps.real(), 76.0);
    EXPECT_LT(eps.imag(), -16.0);
    EXPECT_GT(eps.imag(), -21.0);
}

TEST(Material, OilIsLowPermittivityLowLoss) {
    const auto& oil = material_for(Liquid::kOil);
    const Complex eps = oil.relative_permittivity(kF);
    EXPECT_LT(eps.real(), 3.0);
    EXPECT_LT(-eps.imag() / eps.real(), 0.05);  // loss tangent
}

TEST(Material, LossTangentPositiveForAllLiquids) {
    // eps = eps' - j eps'' with eps' > 0: a positive loss tangent
    // eps'' / eps' is a negative imaginary part.
    for (const Liquid liquid : all_liquids()) {
        EXPECT_LT(material_for(liquid).relative_permittivity(kF).imag(), 0.0)
            << liquid_name(liquid);
    }
}

TEST(Material, ConductivityIncreasesLoss) {
    MaterialProperties salted = material_for(Liquid::kPureWater);
    salted.conductivity = 4.0;
    EXPECT_GT(-salted.relative_permittivity(kF).imag(),
              -material_for(Liquid::kPureWater)
                   .relative_permittivity(kF)
                   .imag());
}

TEST(Material, SaltwaterSeriesLossIsMonotonic) {
    const auto series = saltwater_series();
    ASSERT_EQ(series.size(), 4u);
    double previous = 0.0;
    for (const Liquid liquid : series) {
        const double loss =
            -material_for(liquid).relative_permittivity(kF).imag();
        EXPECT_GT(loss, previous) << liquid_name(liquid);
        previous = loss;
    }
}

TEST(Material, TenEvaluationLiquids) {
    const auto liquids = all_liquids();
    ASSERT_EQ(liquids.size(), 10u);
    std::set<std::string_view> names;
    for (const Liquid liquid : liquids) {
        names.insert(liquid_name(liquid));
    }
    EXPECT_EQ(names.size(), 10u);  // all distinct
    EXPECT_TRUE(names.contains("Pepsi"));
    EXPECT_TRUE(names.contains("Coke"));
    EXPECT_TRUE(names.contains("Pure water"));
}

TEST(Material, ContainerMaterials) {
    EXPECT_FALSE(material_for(ContainerMaterial::kGlass).conductor);
    EXPECT_FALSE(material_for(ContainerMaterial::kPlastic).conductor);
    EXPECT_TRUE(material_for(ContainerMaterial::kMetal).conductor);
    // Glass is denser than plastic dielectric-wise.
    EXPECT_GT(material_for(ContainerMaterial::kGlass)
                  .relative_permittivity(kF)
                  .real(),
              material_for(ContainerMaterial::kPlastic)
                  .relative_permittivity(kF)
                  .real());
}

TEST(Material, AirIsVacuumLike) {
    const Complex eps = air().relative_permittivity(kF);
    EXPECT_NEAR(eps.real(), 1.0, 1e-9);
    EXPECT_NEAR(eps.imag(), 0.0, 1e-9);
}

TEST(Material, FrequencyValidation) {
    EXPECT_THROW(air().relative_permittivity(0.0), Error);
    EXPECT_THROW(air().relative_permittivity(-1.0), Error);
}

TEST(Material, DebyeDispersionReducesEpsWithFrequency) {
    const auto& water = material_for(Liquid::kPureWater);
    const double low = water.relative_permittivity(1e9).real();
    const double high = water.relative_permittivity(20e9).real();
    EXPECT_GT(low, high);
}

TEST(Material, PepsiAndCokeAreSimilarButDistinct) {
    const Complex pepsi =
        material_for(Liquid::kPepsi).relative_permittivity(kF);
    const Complex coke =
        material_for(Liquid::kCoke).relative_permittivity(kF);
    EXPECT_NEAR(pepsi.real(), coke.real(), 3.0);
    EXPECT_NEAR(pepsi.imag(), coke.imag(), 4.0);
    EXPECT_NE(pepsi, coke);
}

}  // namespace
}  // namespace wimi::rf
