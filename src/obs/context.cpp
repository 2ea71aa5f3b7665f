#include "obs/context.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>

namespace wimi::obs {
namespace {

/// Per-process random id base. Ids used to count from 1 in every
/// process, so traces merged across processes (serve client + daemon)
/// collided on id 1, 2, ... Each process now counts from a random
/// 24-bit base shifted to bit 28: bases are 2^28 apart, ids stay below
/// 2^53 (JSON doubles represent them exactly), and two processes only
/// collide if they share a base (p ~ 2^-24) or one allocates > 2^28
/// ids. `salt` decorrelates the trace and span sequences.
std::uint64_t random_id_base(std::uint64_t salt) noexcept {
    std::uint64_t seed = 0x9E3779B97F4A7C15ull + salt;
    try {
        std::random_device rd;
        seed ^= (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    } catch (...) {
        // random_device unavailable: pid + clock still vary per process.
    }
    seed ^= static_cast<std::uint64_t>(::getpid()) * 0xBF58476D1CE4E5B9ull;
    seed ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    // splitmix64 finalizer
    seed ^= seed >> 30;
    seed *= 0xBF58476D1CE4E5B9ull;
    seed ^= seed >> 27;
    seed *= 0x94D049BB133111EBull;
    seed ^= seed >> 31;
    return ((seed & 0xFFFFFFull) << 28) | 1ull;
}

std::atomic<std::uint64_t>& trace_id_counter() noexcept {
    static std::atomic<std::uint64_t> counter{random_id_base(0)};
    return counter;
}

std::atomic<std::uint64_t>& span_id_counter() noexcept {
    static std::atomic<std::uint64_t> counter{random_id_base(1)};
    return counter;
}

ObsContext& thread_context() noexcept {
    static thread_local ObsContext ctx;
    return ctx;
}

}  // namespace

const ObsContext& current_context() noexcept {
    return thread_context();
}

ObsContext& mutable_current_context() noexcept {
    return thread_context();
}

std::uint64_t next_trace_id() noexcept {
    return trace_id_counter().fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() noexcept {
    return span_id_counter().fetch_add(1, std::memory_order_relaxed);
}

ScopedObsContext::ScopedObsContext(const ObsContext& ctx)
    : saved_(thread_context()) {
    thread_context() = ctx;
}

ScopedObsContext::~ScopedObsContext() { thread_context() = saved_; }

}  // namespace wimi::obs
