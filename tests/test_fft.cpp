// Tests for the radix-2 FFT.
#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace wimi::dsp {
namespace {

TEST(Fft, PowerOfTwoHelpers) {
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(64));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(48));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
    std::vector<Complex> x(16, Complex(0.0, 0.0));
    x[0] = Complex(1.0, 0.0);
    const auto spectrum = fft(x);
    for (const Complex v : spectrum) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, DcGivesSingleBin) {
    const std::vector<Complex> x(8, Complex(2.0, 0.0));
    const auto spectrum = fft(x);
    EXPECT_NEAR(spectrum[0].real(), 16.0, 1e-12);
    for (std::size_t k = 1; k < 8; ++k) {
        EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-12);
    }
}

TEST(Fft, SingleToneLandsInItsBin) {
    const std::size_t n = 64;
    const std::size_t tone = 5;
    std::vector<Complex> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::exp(Complex(
            0.0, kTwoPi * static_cast<double>(tone * i) /
                     static_cast<double>(n)));
    }
    const auto spectrum = fft(x);
    EXPECT_NEAR(std::abs(spectrum[tone]), static_cast<double>(n), 1e-9);
    for (std::size_t k = 0; k < n; ++k) {
        if (k != tone) {
            EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
        }
    }
}

TEST(Fft, RoundTripIdentity) {
    Rng rng(3);
    std::vector<Complex> x(128);
    for (Complex& v : x) {
        v = Complex(rng.gaussian(), rng.gaussian());
    }
    const auto back = ifft(fft(x));
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
        EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
    }
}

TEST(Fft, ParsevalEnergyConserved) {
    Rng rng(5);
    std::vector<Complex> x(64);
    double time_energy = 0.0;
    for (Complex& v : x) {
        v = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        time_energy += std::norm(v);
    }
    const auto spectrum = fft(x);
    double freq_energy = 0.0;
    for (const Complex v : spectrum) {
        freq_energy += std::norm(v);
    }
    EXPECT_NEAR(freq_energy / 64.0, time_energy, 1e-9);
}

TEST(Fft, NonPowerOfTwoRejected) {
    std::vector<Complex> x(30, Complex(1.0, 0.0));
    EXPECT_THROW(fft_in_place(x), Error);
}

}  // namespace
}  // namespace wimi::dsp
