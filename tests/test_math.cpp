// Tests for the shared math helpers.
#include "common/math.hpp"

#include <gtest/gtest.h>

namespace wimi {
namespace {

TEST(Math, WrapToPiIdentityInRange) {
    EXPECT_NEAR(wrap_to_pi(0.5), 0.5, 1e-12);
    EXPECT_NEAR(wrap_to_pi(-1.2), -1.2, 1e-12);
}

TEST(Math, WrapToPiWrapsPositive) {
    EXPECT_NEAR(wrap_to_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
    EXPECT_NEAR(wrap_to_pi(3 * kPi), kPi, 1e-9);
}

TEST(Math, WrapToPiWrapsNegative) {
    EXPECT_NEAR(wrap_to_pi(-kPi - 0.1), kPi - 0.1, 1e-12);
}

TEST(Math, WrapToPiBoundaryIsPlusPi) {
    EXPECT_NEAR(wrap_to_pi(kPi), kPi, 1e-12);
    EXPECT_NEAR(wrap_to_pi(-kPi), kPi, 1e-12);
}

TEST(Math, DegreesRadians) {
    EXPECT_NEAR(rad_to_deg(kPi), 180.0, 1e-12);
    EXPECT_NEAR(rad_to_deg(kPi / 2.0), 90.0, 1e-12);
}

TEST(Math, PowerAmplitudeDb) {
    EXPECT_NEAR(db_to_amplitude(-6.0), 0.5011872336, 1e-9);
    EXPECT_NEAR(db_to_amplitude(20.0), 10.0, 1e-12);
}

TEST(Math, Clamp) {
    EXPECT_EQ(clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_EQ(clamp(0.4, 0.0, 1.0), 0.4);
}

TEST(Math, PhysicalConstants) {
    EXPECT_NEAR(kSpeedOfLight, 2.998e8, 1e6);
    EXPECT_NEAR(kVacuumPermittivity, 8.854e-12, 1e-14);
}

}  // namespace
}  // namespace wimi
