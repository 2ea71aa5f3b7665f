// Stage tracing: RAII spans recorded into per-thread ring buffers and
// exported as Chrome trace_event JSON.
//
// A TraceSpan marks one pipeline stage (capture, calibration, feature
// extraction, SVM training, ...). Each thread appends finished spans to
// its own fixed-capacity ring buffer — no cross-thread contention on the
// hot path beyond one uncontended mutex — and trace_to_json() merges all
// buffers into a single document loadable in chrome://tracing or Perfetto
// ("Complete" events, ph = "X", nested by timestamp containment).
//
// Prefer the WIMI_TRACE_SPAN macro in obs/obs.hpp: it honors the runtime
// kill-switch and compiles out under WIMI_OBS_DISABLED.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace wimi::obs {

/// One finished span.
struct TraceEvent {
    std::string name;
    double ts_us = 0.0;     ///< start, microseconds since trace epoch
    double dur_us = 0.0;    ///< duration, microseconds
    std::uint32_t tid = 0;  ///< stable per-thread id (1-based)
    std::uint32_t depth = 0;  ///< nesting depth at entry (0 = outermost)
    std::uint64_t trace_id = 0;  ///< causal trace this span belongs to
    std::uint64_t span_id = 0;   ///< process-unique id of this span
    std::uint64_t parent_span_id = 0;  ///< 0 = root of its trace
};

/// RAII span: times the enclosing scope and records a TraceEvent on
/// destruction. `name` must outlive the span (string literals in
/// practice).
///
/// Spans also maintain the thread's ObsContext (obs/context.hpp): the
/// outermost span with no inherited context opens a fresh trace; nested
/// spans — including spans in pool workers running under a propagated
/// ScopedObsContext — inherit the trace id and record the enclosing span
/// as their parent.
class TraceSpan {
public:
    explicit TraceSpan(const char* name) noexcept;
    ~TraceSpan();

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

private:
    const char* name_;
    std::chrono::steady_clock::time_point start_;
    bool active_;
    bool owns_trace_ = false;  ///< this span opened the trace id
    std::uint64_t trace_id_ = 0;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_span_id_ = 0;
};

/// RAII timer recording elapsed microseconds into `sink` on destruction;
/// for hot paths that want a duration histogram without a trace event.
class ScopedTimer {
public:
    explicit ScopedTimer(Histogram& sink) noexcept
        : sink_(sink), start_(std::chrono::steady_clock::now()) {}

    ~ScopedTimer() {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        sink_.record(
            std::chrono::duration<double, std::micro>(elapsed).count());
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Histogram& sink_;
    std::chrono::steady_clock::time_point start_;
};

/// Per-thread ring capacity: once a thread has this many finished spans,
/// the oldest are overwritten. Threads that have exited share one more
/// history of this size, holding their newest spans.
std::size_t trace_ring_capacity() noexcept;

/// Microseconds elapsed since the process trace epoch — the same clock
/// and origin as TraceEvent.ts_us, so log timestamps align with spans.
double trace_now_us() noexcept;

/// Stable 1-based id of the calling thread (same value TraceEvent.tid
/// records for spans on this thread).
std::uint32_t current_thread_tid();

/// The calling thread's name as set via set_thread_name ("" if unnamed).
std::string current_thread_name();

/// Names the calling thread in trace exports (Chrome "thread_name"
/// metadata events, shown as lane labels in chrome://tracing/Perfetto).
/// The exec pool names its workers "exec.worker.<k>"; name the main
/// thread yourself if desired. Survives trace_reset().
void set_thread_name(std::string name);

/// (tid, name) for every thread that called set_thread_name, live or
/// exited, sorted by tid.
std::vector<std::pair<std::uint32_t, std::string>> trace_thread_names();

/// All finished spans from every thread (live rings, and the exited
/// threads' shared history), sorted by start time.
std::vector<TraceEvent> trace_snapshot();

/// Drops all recorded spans (live rings and retired threads).
void trace_reset();

/// Chrome trace_event JSON of trace_snapshot() — load in chrome://tracing
/// or https://ui.perfetto.dev.
std::string trace_to_json();

}  // namespace wimi::obs
