// Tests for the CRC-32 implementation backing WCSI v2 integrity checks.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace wimi {
namespace {

/// Bit-at-a-time CRC-32 straight from the polynomial definition: the
/// oracle the table-driven implementation must match on every input.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size) {
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
            state = (state & 1u) ? (state >> 1) ^ 0xEDB88320u
                                 : state >> 1;
        }
    }
    return state ^ 0xFFFFFFFFu;
}

/// Deterministic non-repeating-looking bytes, reproducible outside this
/// repository: bytes(((i * 131) ^ (i >> 7)) & 0xFF for i in range(n)).
std::vector<unsigned char> pattern_bytes(std::size_t size) {
    std::vector<unsigned char> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
        bytes[i] =
            static_cast<unsigned char>(((i * 131) ^ (i >> 7)) & 0xFFu);
    }
    return bytes;
}

TEST(Crc32, MatchesKnownVectors) {
    // The canonical check value of CRC-32/ISO-HDLC and zlib's crc32().
    const char* check = "123456789";
    EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
    // zlib.crc32(b"WCSI") == 0x9BD42C3D.
    EXPECT_EQ(crc32("WCSI", 4), 0x9BD42C3Du);
}

TEST(Crc32, EmptyInputIsZero) {
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndAlignment) {
    const std::vector<unsigned char> bytes = pattern_bytes(256 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t size = 0; size <= 256; ++size) {
            EXPECT_EQ(crc32(bytes.data() + offset, size),
                      reference_crc32(bytes.data() + offset, size))
                << "offset=" << offset << " size=" << size;
        }
    }
}

TEST(Crc32, MatchesBitwiseOracleOnASeriesRequestSizedBuffer) {
    // The size of one kPredictSeries record carrying two 20-packet
    // 3x30 captures.
    const std::vector<unsigned char> bytes = pattern_bytes(58512);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()),
              reference_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32, LongKnownAnswer) {
    // zlib.crc32 of pattern_bytes(1 << 20), as Python computes it.
    const std::vector<unsigned char> bytes = pattern_bytes(1u << 20);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xFC343261u);
}

TEST(Crc32, SingleBitChangeAlwaysDetected) {
    unsigned char block[64];
    for (std::size_t i = 0; i < sizeof(block); ++i) {
        block[i] = static_cast<unsigned char>(i * 37 + 11);
    }
    const std::uint32_t reference = crc32(block, sizeof(block));
    for (std::size_t bit = 0; bit < 8 * sizeof(block); ++bit) {
        block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_NE(crc32(block, sizeof(block)), reference)
            << "bit=" << bit;
        block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
}

}  // namespace
}  // namespace wimi
