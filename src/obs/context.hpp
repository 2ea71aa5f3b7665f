// Trace-context propagation: the per-thread ObsContext that links spans
// and log lines into one causal trace across thread-pool fan-outs.
//
// Every thread carries an implicit ObsContext (trace id + innermost open
// span id). TraceSpan maintains it: the outermost span on a thread with
// no inherited context starts a fresh trace; nested spans inherit the
// trace id and record their parent span id. When
// exec::parallel_for hands tasks to pool workers it captures the
// submitting thread's context and installs a copy (ScopedObsContext) in
// each worker for the duration of the task, so spans opened inside pool
// tasks resolve to their logical parent on the submitting thread and log
// lines emitted from workers carry the originating trace id.
//
// Ids are 64-bit counters seeded from a per-process random base, so
// traces merged across processes (e.g. the serve client and daemon,
// stitched by wire-level trace propagation) do not collide. Ids stay
// below 2^53 until 2^28 allocations, so a JSON double represents them
// exactly. 0 means "none".
#pragma once

#include <cstdint>

namespace wimi::obs {

/// The causal context active on the current thread.
struct ObsContext {
    std::uint64_t trace_id = 0;  ///< 0 = no trace open
    std::uint64_t span_id = 0;   ///< innermost open span; parent for new spans

    bool empty() const noexcept { return trace_id == 0 && span_id == 0; }
};

/// The calling thread's current context.
const ObsContext& current_context() noexcept;

/// Mutable access for the span machinery (trace.cpp) and scoped guards.
/// Application code should not write through this directly.
ObsContext& mutable_current_context() noexcept;

/// Allocates a fresh process-unique trace id (never 0).
std::uint64_t next_trace_id() noexcept;

/// Allocates a fresh process-unique span id (never 0).
std::uint64_t next_span_id() noexcept;

/// Installs `ctx` as the calling thread's context for the current scope
/// and restores the previous context on destruction. exec::parallel_for
/// wraps every pool task in one of these.
class ScopedObsContext {
public:
    explicit ScopedObsContext(const ObsContext& ctx);
    ~ScopedObsContext();

    ScopedObsContext(const ScopedObsContext&) = delete;
    ScopedObsContext& operator=(const ScopedObsContext&) = delete;

private:
    ObsContext saved_;
};

}  // namespace wimi::obs
