// Run provenance: the `wimi.run.v1` manifest and the on-disk run ledger.
//
// A metrics report says *what* the numbers were; the run manifest says
// *which run* produced them — tool name, config digest, RNG seed, thread
// width, build flavor (build type, sanitizer, compiler, whether the
// instrumentation was compiled in), wall/CPU time, and an embedded
// `wimi.metrics.v1` snapshot. Every entry point that emits metrics
// (sim::Harness experiments, `csi_trace_tool pipeline`, the bench_*
// binaries) opens a RunContext and appends the finished manifest to a
// JSON-lines ledger, so any report on disk can be traced back to the
// exact configuration that produced it and any two ledger entries can be
// diffed with `wimi_regress`.
//
// Ledger resolution, first match wins:
//   1. an explicit path handed to append_to_ledger();
//   2. the WIMI_RUN_LEDGER environment variable;
//   3. the caller's fallback path (benches pass "wimi_runs.jsonl");
//   4. none — append_to_default_ledger() becomes a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace wimi::obs {

/// Compile-time flavor of this binary, for the manifest's `build` object.
struct BuildInfo {
    std::string build_type;  ///< CMAKE_BUILD_TYPE at configure time
    std::string sanitize;    ///< WIMI_SANITIZE value ("" when unsanitized)
    std::string compiler;    ///< compiler id + version string
    /// Active SIMD ISA of the DSP/feature kernels at manifest time
    /// ("avx2", "sse2", ... or "scalar" when compiled out or disabled).
    std::string simd;
    bool obs_compiled_in = true;
};

/// The flavor baked into this translation unit's library build.
BuildInfo build_info();

/// Short stable digest (CRC-32 hex) of a serialized configuration —
/// equal digests mean the runs were configured identically.
std::string config_digest(std::string_view serialized_config);

/// One attributable run. Construction records the start of the wall/CPU
/// clocks; manifest_json() / the ledger appenders capture the elapsed
/// times and the metrics snapshot at the moment they are called.
class RunContext {
public:
    explicit RunContext(std::string tool);

    /// Records the run's primary RNG seed.
    void set_seed(std::uint64_t seed);

    /// Records the configured fan-out width (0 = pool default).
    void set_threads(std::size_t threads);

    /// Digests and records the run's serialized configuration.
    void set_config(std::string_view serialized_config);

    /// Attaches a free-form annotation (accuracy, environment name, ...).
    /// Notes keep insertion order in the manifest.
    void note(std::string key, std::string value);
    void note(std::string key, double value);

    /// The `wimi.run.v1` document for this run, with wall/CPU time
    /// measured from construction to this call and `reg`'s snapshot
    /// embedded under "metrics".
    std::string manifest_json(const MetricsRegistry& reg = registry()) const;

    /// Appends manifest_json(reg) as one line to the JSON-lines ledger at
    /// `path` (created when absent). Throws wimi::Error on I/O failure.
    void append_to_ledger(const std::string& path,
                          const MetricsRegistry& reg = registry()) const;

    /// Appends to WIMI_RUN_LEDGER when set, else to `fallback_path` when
    /// non-empty, else does nothing. Returns the path written ("" when
    /// skipped). Never throws: a failing ledger write must not take down
    /// the run it describes; the error is reported on stderr instead.
    std::string append_to_default_ledger(
        const std::string& fallback_path = "",
        const MetricsRegistry& reg = registry()) const;

private:
    std::string tool_;
    std::uint64_t seed_ = 0;
    bool seed_set_ = false;
    std::size_t threads_ = 0;
    std::string config_digest_;
    /// (key, pre-serialized JSON value), insertion-ordered.
    std::vector<std::pair<std::string, std::string>> notes_;
    std::chrono::steady_clock::time_point wall_start_;
    std::clock_t cpu_start_;
    std::int64_t unix_time_ = 0;
};

}  // namespace wimi::obs
