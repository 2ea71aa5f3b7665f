#include "common/crc32.hpp"

#include <array>

#include "common/bytes.hpp"

namespace wimi {
namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 tables. kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the state contribution of byte b followed by k zero
// bytes, so one step folds eight input bytes with eight independent
// lookups instead of a chain of eight dependent ones.
constexpr std::array<Table, 8> make_tables() {
    std::array<Table, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
        }
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::uint32_t state = 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = state ^ load_u32_le(bytes);
        const std::uint32_t hi = load_u32_le(bytes + 4);
        state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
                kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
                kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
                kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    // The tail of fewer than eight bytes goes one byte at a time.
    for (std::size_t i = 0; i < size; ++i) {
        state = kTables[0][(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
    }
    return state ^ 0xFFFFFFFFu;
}

}  // namespace wimi
