#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace wimi::simd {
namespace {

bool env_wants_scalar() {
    const char* raw = std::getenv("WIMI_SIMD");
    if (raw == nullptr) {
        return false;
    }
    std::string value(raw);
    for (char& c : value) {
        if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
        }
    }
    return value == "off" || value == "scalar" || value == "0";
}

std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{WIMI_SIMD_NATIVE != 0 && !env_wants_scalar()};
    return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
    // Cannot enable wider-than-compiled paths; clamp to what exists.
    enabled_flag().store(on && WIMI_SIMD_NATIVE != 0,
                         std::memory_order_relaxed);
}

std::size_t double_lanes() { return kDoubleLanes; }

const char* effective_isa() { return enabled() ? WIMI_SIMD_ISA : "scalar"; }

}  // namespace wimi::simd
