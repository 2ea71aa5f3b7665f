#include "dsp/fft.hpp"

#include <cmath>

#include "common/error.hpp"

namespace wimi::dsp {
namespace {

void transform(std::vector<Complex>& data, bool inverse) {
    const std::size_t n = data.size();
    ensure(is_power_of_two(n), "fft: size must be a power of two");

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) {
            j ^= bit;
        }
        j ^= bit;
        if (i < j) {
            std::swap(data[i], data[j]);
        }
    }

    // Butterflies.
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
        const Complex w_len(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t j = 0; j < len / 2; ++j) {
                const Complex u = data[i + j];
                const Complex v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= w_len;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (Complex& x : data) {
            x *= scale;
        }
    }
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_in_place(std::vector<Complex>& data) { transform(data, false); }

void ifft_in_place(std::vector<Complex>& data) { transform(data, true); }

std::vector<Complex> fft(std::span<const Complex> input) {
    std::vector<Complex> data(input.begin(), input.end());
    fft_in_place(data);
    return data;
}

std::vector<Complex> ifft(std::span<const Complex> input) {
    std::vector<Complex> data(input.begin(), input.end());
    ifft_in_place(data);
    return data;
}

}  // namespace wimi::dsp
