// Portable fixed-width SIMD abstraction.
//
// One compile-time ISA is selected per build (AVX-512 / AVX2 / SSE2 /
// NEON, or the scalar fallback) and exposed as `vec<T, N>`: a value type
// of N lanes that lowers to one or more hardware registers via the
// GNU/Clang vector extension, or to a plain array + loops when the
// extension (or the build flag) is unavailable. Per-lane arithmetic is
// IEEE-754 per operation in both lowerings, so a vectorized kernel that
// performs the same operations in the same per-value order as its scalar
// reference is bit-identical to it — the property the differential suite
// in tests/test_simd_kernels.cpp enforces.
//
// Dispatch contract (see DESIGN.md §10):
//   * ISA and lane width are fixed at compile time. The CMake option
//     WIMI_SIMD chooses the flags (off | auto | sse2 | avx2 | native);
//     `effective_isa()` reports what this binary was compiled for while
//     the vector paths are on.
//   * The WIMI_SIMD *environment variable* (and `set_enabled()`) toggle
//     the vector paths at runtime: "off" / "scalar" / "0" routes every
//     kernel through its scalar reference, which reproduces the pre-SIMD
//     pipeline bit-for-bit. Anything else (or unset) keeps the vector
//     paths live.
//   * Elementwise kernels and per-row reductions with a fixed scalar
//     accumulation order are bit-exact between the two paths; kernels
//     that reassociate a long reduction (lane-partial sums merged in
//     lane order) are tolerance-gated instead — the per-span parity
//     check in tests/test_perf (rel 1e-6, abs 1e-9) covers the
//     downstream drift.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>

// ISA detection. WIMI_SIMD_DISABLED comes from -DWIMI_SIMD=off; the
// vector extension needs GCC or Clang, every other compiler gets the
// scalar fallback (still correct, just narrow).
#if !defined(WIMI_SIMD_DISABLED) && (defined(__GNUC__) || defined(__clang__))
#define WIMI_SIMD_NATIVE 1
#if defined(__AVX512F__)
#define WIMI_SIMD_ISA "avx512"
#define WIMI_SIMD_DOUBLE_LANES 8
#elif defined(__AVX2__) || defined(__AVX__)
#define WIMI_SIMD_ISA "avx2"
#define WIMI_SIMD_DOUBLE_LANES 4
#elif defined(__SSE2__) || defined(__x86_64__)
#define WIMI_SIMD_ISA "sse2"
#define WIMI_SIMD_DOUBLE_LANES 2
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define WIMI_SIMD_ISA "neon"
#define WIMI_SIMD_DOUBLE_LANES 2
#else
#undef WIMI_SIMD_NATIVE
#define WIMI_SIMD_NATIVE 0
#define WIMI_SIMD_ISA "scalar"
#define WIMI_SIMD_DOUBLE_LANES 1
#endif
#else
#define WIMI_SIMD_NATIVE 0
#define WIMI_SIMD_ISA "scalar"
#define WIMI_SIMD_DOUBLE_LANES 1
#endif

namespace wimi::simd {

/// Lane count for double kernels in this build (1 when scalar-only).
inline constexpr std::size_t kDoubleLanes = WIMI_SIMD_DOUBLE_LANES;

/// Lane count for float kernels (twice the double width, min 1).
inline constexpr std::size_t kFloatLanes =
    kDoubleLanes > 1 ? 2 * kDoubleLanes : 1;

/// Fixed-width vector of N lanes of T. N must be a power of two. All
/// lane arithmetic is elementwise IEEE-754; there is no horizontal
/// reassociation unless a kernel asks for it explicitly via hsum_ordered.
template <typename T, std::size_t N>
struct vec {
    static_assert(N >= 1 && (N & (N - 1)) == 0,
                  "vec: lane count must be a power of two");

#if WIMI_SIMD_NATIVE
    typedef T storage __attribute__((vector_size(N * sizeof(T))));
#else
    using storage = std::array<T, N>;
#endif
    storage v;

    /// Unaligned load of N consecutive lanes from p.
    static vec load(const T* p) {
        vec out;
        std::memcpy(&out.v, p, sizeof(out.v));
        return out;
    }

    /// All lanes set to x.
    static vec broadcast(T x) {
        vec out;
#if WIMI_SIMD_NATIVE
        out.v = x - storage{};  // splat: x broadcast minus zero vector
#else
        out.v.fill(x);
#endif
        return out;
    }

    /// All lanes zero.
    static vec zero() { return broadcast(T{0}); }

    /// Unaligned store of all lanes to p.
    void store(T* p) const { std::memcpy(p, &v, sizeof(v)); }

    T lane(std::size_t i) const {
        T out;
        std::memcpy(&out, reinterpret_cast<const char*>(&v) + i * sizeof(T),
                    sizeof(T));
        return out;
    }

    friend vec operator+(vec a, vec b) { return apply2(a, b, '+'); }
    friend vec operator-(vec a, vec b) { return apply2(a, b, '-'); }
    friend vec operator*(vec a, vec b) { return apply2(a, b, '*'); }
    friend vec operator/(vec a, vec b) { return apply2(a, b, '/'); }

    friend vec min(vec a, vec b) {
#if WIMI_SIMD_NATIVE
        vec out;
        out.v = a.v < b.v ? a.v : b.v;
        return out;
#else
        vec out;
        for (std::size_t i = 0; i < N; ++i) {
            out.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
        }
        return out;
#endif
    }

    friend vec max(vec a, vec b) {
#if WIMI_SIMD_NATIVE
        vec out;
        out.v = a.v < b.v ? b.v : a.v;
        return out;
#else
        vec out;
        for (std::size_t i = 0; i < N; ++i) {
            out.v[i] = a.v[i] < b.v[i] ? b.v[i] : a.v[i];
        }
        return out;
#endif
    }

    /// |x| per lane via sign-bit clear — bitwise identical to std::abs
    /// on every value, including -0.0 (-> +0.0) and NaN payloads.
    friend vec abs(vec a) {
        vec out;
#if WIMI_SIMD_NATIVE
        using bits = decltype(a.v < a.v);  // signed integer lanes
        const bits sign = (bits{} + 1)
                          << (8 * sizeof(T) - 1);  // MSB of each lane
        out.v = (storage)((bits)a.v & ~sign);
#else
        for (std::size_t i = 0; i < N; ++i) {
            out.v[i] = std::abs(a.v[i]);
        }
#endif
        return out;
    }

    /// Per-lane select: a >= b ? t : f. IEEE comparison semantics:
    /// -0 >= +0 is true, any NaN operand selects f. Selected lanes pass
    /// through bit-for-bit (a bitwise blend, not arithmetic).
    friend vec blend_ge(vec a, vec b, vec t, vec f) {
        vec out;
#if WIMI_SIMD_NATIVE
        using bits = decltype(a.v >= b.v);  // all-ones / all-zero lanes
        const bits m = (a.v >= b.v);
        out.v = (storage)(((bits)t.v & m) | ((bits)f.v & ~m));
#else
        for (std::size_t i = 0; i < N; ++i) {
            out.v[i] = a.v[i] >= b.v[i] ? t.v[i] : f.v[i];
        }
#endif
        return out;
    }

    /// Lane sum in lane order: ((lane0 + lane1) + lane2) + ... — the one
    /// reassociation point of the abstraction, deterministic for a given
    /// lane count.
    T hsum_ordered() const {
        T sum = lane(0);
        for (std::size_t i = 1; i < N; ++i) {
            sum += lane(i);
        }
        return sum;
    }

private:
    static vec apply2(vec a, vec b, char op) {
        vec out;
#if WIMI_SIMD_NATIVE
        switch (op) {
            case '+': out.v = a.v + b.v; break;
            case '-': out.v = a.v - b.v; break;
            case '*': out.v = a.v * b.v; break;
            default:  out.v = a.v / b.v; break;
        }
#else
        for (std::size_t i = 0; i < N; ++i) {
            switch (op) {
                case '+': out.v[i] = a.v[i] + b.v[i]; break;
                case '-': out.v[i] = a.v[i] - b.v[i]; break;
                case '*': out.v[i] = a.v[i] * b.v[i]; break;
                default:  out.v[i] = a.v[i] / b.v[i]; break;
            }
        }
#endif
        return out;
    }
};

using vd = vec<double, kDoubleLanes>;

/// True when the vector kernel paths are live (compiled in and not
/// switched off via WIMI_SIMD=off|scalar|0 or set_enabled(false)).
bool enabled();

/// Runtime kill-switch for the vector paths; the scalar references are
/// the pre-SIMD pipeline. Used by the differential tests and the
/// scalar-vs-SIMD parity and speedup gates in tests/test_perf.
void set_enabled(bool on);

/// Lane width the simd *library* was compiled at. Arch flags are scoped
/// to the wimi_simd target, so kDoubleLanes in another translation unit
/// may be narrower than the kernels actually run at — query this instead
/// when the kernel width matters (tests, benches).
std::size_t double_lanes();

/// The ISA actually in effect: the one this binary was compiled for
/// ("avx512" | "avx2" | "sse2" | "neon" | "scalar") when enabled(), else
/// "scalar". This is what run manifests and metrics reports export.
const char* effective_isa();

}  // namespace wimi::simd
