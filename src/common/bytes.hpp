// Little-endian field codec shared by the three binary formats: WCSI
// traces (csi/trace_io), wimi_serve wire records (serve/wire) and
// wimi.model files (serve/model_io). This header decides how a field is
// laid out in bytes; each format keeps its own layout, versions, caps
// and error texts.
//
// Every multi-byte field is little-endian on any host, and a double is
// the little-endian bytes of its IEEE-754 bit pattern. The helpers are
// spelled byte by byte, so the layout does not depend on the host;
// compilers fold each one into one plain load or store on little-endian
// targets, which keeps the WCSI frame codec at memory speed. Stores go
// through a local array because GCC's vectorizer otherwise keeps eight
// single-byte stores per double. Everything stays inline: a decoded 3x30
// frame reads 182 doubles, and a call per field would show.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace wimi {

/// A four-character tag ("WCSI") as the u32 whose little-endian bytes
/// spell it.
constexpr std::uint32_t fourcc(const char* tag) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1]))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2]))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3]))
            << 24);
}

/// The u32 a WCSI v2 or wimi.model header carries so that a file written
/// in another byte order is refused.
inline constexpr std::uint32_t kByteOrderMarker = 0x01020304u;

template <typename T>
inline void store_le(std::uint8_t* p, T v) {
    std::array<std::uint8_t, sizeof(T)> bytes;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    std::memcpy(p, bytes.data(), bytes.size());
}

inline void store_u32_le(std::uint8_t* p, std::uint32_t v) { store_le(p, v); }

inline void store_u64_le(std::uint8_t* p, std::uint64_t v) { store_le(p, v); }

inline void store_i32_le(std::uint8_t* p, std::int32_t v) {
    store_u32_le(p, static_cast<std::uint32_t>(v));
}

inline void store_f64_le(std::uint8_t* p, double v) {
    store_u64_le(p, std::bit_cast<std::uint64_t>(v));
}

inline std::uint32_t load_u32_le(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_u64_le(const std::uint8_t* p) {
    return static_cast<std::uint64_t>(load_u32_le(p)) |
           (static_cast<std::uint64_t>(load_u32_le(p + 4)) << 32);
}

inline std::int32_t load_i32_le(const std::uint8_t* p) {
    return static_cast<std::int32_t>(load_u32_le(p));
}

inline double load_f64_le(const std::uint8_t* p) {
    return std::bit_cast<double>(load_u64_le(p));
}

/// Appends little-endian fields to a byte buffer it owns. Each field
/// grows the buffer once and is stored into it whole.
class ByteWriter {
public:
    explicit ByteWriter(std::size_t capacity = 0) { out_.reserve(capacity); }

    std::size_t size() const { return out_.size(); }

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u32(std::uint32_t v) { store_u32_le(grow(4).data(), v); }
    void u64(std::uint64_t v) { store_u64_le(grow(8).data(), v); }
    void i32(std::int32_t v) { store_i32_le(grow(4).data(), v); }
    void f64(double v) { store_f64_le(grow(8).data(), v); }

    /// Appends raw bytes (a string's UTF-8, say) as they are.
    void append(std::string_view bytes) {
        out_.insert(out_.end(), bytes.begin(), bytes.end());
    }

    /// Appends `size` zero bytes and returns them, for a codec that
    /// writes a region in place.
    std::span<std::uint8_t> grow(std::size_t size) {
        const std::size_t at = out_.size();
        out_.resize(at + size);
        return std::span(out_).subspan(at);
    }

    /// Overwrites the u64 at `offset`: a length known only at the end.
    void patch_u64(std::size_t offset, std::uint64_t v) {
        store_u64_le(out_.data() + offset, v);
    }

    /// Appends the CRC-32 of every byte from `from` to the end.
    void seal(std::size_t from = 0) {
        u32(crc32(out_.data() + from, out_.size() - from));
    }

    std::span<const std::uint8_t> bytes() const { return out_; }
    std::vector<std::uint8_t> take() && { return std::move(out_); }

private:
    std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader over a byte span. Every read
/// checks the bytes left first, so truncated input or a lying length is
/// the wimi::Error "<format>: truncated <field>", never a read past the
/// end. `format` is the caller's prefix ("wire", "load_model"); it must
/// outlive the reader.
class ByteReader {
public:
    ByteReader(std::span<const std::uint8_t> bytes, const char* format)
        : bytes_(bytes), format_(format) {}

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool exhausted() const { return pos_ == bytes_.size(); }

    std::uint8_t u8() { return *take(1, "u8 field"); }
    std::uint32_t u32() { return load_u32_le(take(4, "u32 field")); }
    std::uint64_t u64() { return load_u64_le(take(8, "u64 field")); }
    std::int32_t i32() { return load_i32_le(take(4, "i32 field")); }
    double f64() { return load_f64_le(take(8, "f64 field")); }

    /// `count` doubles. The length is checked before anything is
    /// allocated, so a lying count cannot allocate past the input.
    std::vector<double> f64s(std::uint64_t count, const char* what) {
        if (count > remaining() / 8) {
            truncated(what);
        }
        std::vector<double> out(static_cast<std::size_t>(count));
        const std::uint8_t* p = take(8 * count, what);
        for (double& v : out) {
            v = load_f64_le(p);
            p += 8;
        }
        return out;
    }

    /// The next `size` bytes, as a view into the input.
    std::span<const std::uint8_t> bytes(std::uint64_t size,
                                        const char* what) {
        const std::uint8_t* p = take(size, what);
        return {p, static_cast<std::size_t>(size)};
    }

    std::string string(std::uint64_t size, const char* what) {
        const std::span<const std::uint8_t> b = bytes(size, what);
        return {reinterpret_cast<const char*>(b.data()), b.size()};
    }

private:
    const std::uint8_t* take(std::uint64_t size, const char* what) {
        if (size > remaining()) {
            truncated(what);
        }
        const std::uint8_t* p = bytes_.data() + pos_;
        pos_ += static_cast<std::size_t>(size);
        return p;
    }

    [[noreturn]] void truncated(const char* what) const {
        throw Error(std::string(format_) + ": truncated " + what);
    }

    std::span<const std::uint8_t> bytes_;
    const char* format_;
    std::size_t pos_ = 0;
};

}  // namespace wimi
