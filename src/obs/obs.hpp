// Observability entry point: include this and use the WIMI_OBS_* macros.
//
// All pipeline instrumentation routes through these macros so one
// compile-time switch controls everything:
//
//   WIMI_TRACE_SPAN("wimi.identify");          // RAII stage span
//   WIMI_OBS_COUNT("csi.packets_captured", n); // counter += n
//   WIMI_OBS_GAUGE_SET("calib.subcarriers_selected", count);
//   WIMI_OBS_HISTOGRAM("svm.train.passes", passes);
//   WIMI_OBS_LOG_INFO("sim.harness", "experiment started",
//                     ::wimi::obs::kv("seed", seed));
//
// Building with -DWIMI_OBS_DISABLED (CMake: -DWIMI_ENABLE_OBS=OFF)
// compiles every macro to nothing — the value expressions are referenced
// in an unevaluated sizeof so variables computed for metrics do not draw
// unused warnings, but no code runs. With observability compiled in,
// obs::set_enabled(false) is the runtime kill-switch: each site then
// costs one relaxed atomic load.
#pragma once

#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

#define WIMI_OBS_CONCAT_IMPL_(a, b) a##b
#define WIMI_OBS_CONCAT_(a, b) WIMI_OBS_CONCAT_IMPL_(a, b)

#if defined(WIMI_OBS_DISABLED)

// Unevaluated: marks the operands as used without generating code.
#define WIMI_OBS_VOID_(expr) \
    static_cast<void>(sizeof(((void)(expr), 0)))

// Guard for instrumentation-only computation: `if (WIMI_OBS_ENABLED())`
// blocks fold to dead code when observability is compiled out.
#define WIMI_OBS_ENABLED() false

#define WIMI_TRACE_SPAN(name) WIMI_OBS_VOID_(name)
#define WIMI_OBS_COUNT(name, n) \
    static_cast<void>(sizeof(((void)("" name), (void)(n), 0)))
#define WIMI_OBS_GAUGE_SET(name, value) \
    static_cast<void>(sizeof(((void)(name), (void)(value), 0)))
#define WIMI_OBS_HISTOGRAM(name, value) \
    static_cast<void>(sizeof(((void)(name), (void)(value), 0)))

// Log macros compile out the same way: component/message/fields are
// referenced inside an unevaluated sizeof (fields through the declared-
// but-never-defined log_fields_unused) so no code runs and no operand
// draws an unused warning.
#define WIMI_OBS_LOG_IMPL_(component, message, ...)                   \
    static_cast<void>(                                                \
        sizeof(((void)(component), (void)(message),                   \
                (void)sizeof(::wimi::obs::log_fields_unused(          \
                    __VA_ARGS__)),                                    \
                0)))
#define WIMI_OBS_LOG_TRACE(component, message, ...) \
    WIMI_OBS_LOG_IMPL_(component, message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_DEBUG(component, message, ...) \
    WIMI_OBS_LOG_IMPL_(component, message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_INFO(component, message, ...) \
    WIMI_OBS_LOG_IMPL_(component, message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_WARN(component, message, ...) \
    WIMI_OBS_LOG_IMPL_(component, message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_ERROR(component, message, ...) \
    WIMI_OBS_LOG_IMPL_(component, message __VA_OPT__(, ) __VA_ARGS__)

#else

#define WIMI_OBS_ENABLED() (::wimi::obs::enabled())

#define WIMI_TRACE_SPAN(name) \
    ::wimi::obs::TraceSpan WIMI_OBS_CONCAT_(wimi_obs_span_, __LINE__)(name)

// Each site looks its counter up once and keeps the reference (registry
// references are stable, see obs/metrics.hpp), so a hot counter costs an
// atomic add instead of a mutex and a map walk. The name must be a string
// literal ("" name does not compile otherwise): one site, one counter.
#define WIMI_OBS_COUNT(name, n)                                      \
    do {                                                             \
        if (::wimi::obs::enabled()) {                                \
            static ::wimi::obs::Counter& wimi_obs_counter_ =         \
                ::wimi::obs::registry().counter("" name);            \
            wimi_obs_counter_.add(n);                                \
        }                                                            \
    } while (0)

#define WIMI_OBS_GAUGE_SET(name, value)                       \
    do {                                                      \
        if (::wimi::obs::enabled()) {                         \
            ::wimi::obs::registry().gauge(name).set(value);   \
        }                                                     \
    } while (0)

#define WIMI_OBS_HISTOGRAM(name, value)                            \
    do {                                                           \
        if (::wimi::obs::enabled()) {                              \
            ::wimi::obs::registry().histogram(name).record(value); \
        }                                                          \
    } while (0)

// Structured log line at the given level. Fields (zero or more
// ::wimi::obs::kv(...) pairs) are evaluated only when the line clears
// both the kill-switch and the level threshold:
//
//   WIMI_OBS_LOG_WARN("csi.trace", "frame CRC mismatch",
//                     ::wimi::obs::kv("frame", index));
#define WIMI_OBS_LOG_IMPL_(level_, component, message, ...)        \
    do {                                                           \
        if (::wimi::obs::log_enabled(level_)) {                    \
            ::wimi::obs::log_emit((level_), (component), (message), \
                                  {__VA_ARGS__});                  \
        }                                                          \
    } while (0)
#define WIMI_OBS_LOG_TRACE(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kTrace, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_DEBUG(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kDebug, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_INFO(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kInfo, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_WARN(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kWarn, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_ERROR(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kError, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)

#endif  // WIMI_OBS_DISABLED
