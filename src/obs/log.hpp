// Leveled structured logging: `wimi.log.v1` JSONL.
//
// One log line is one JSON object:
//
//   {"schema":"wimi.log.v1","ts_us":1234.5,"unix_ms":1754700000000,
//    "level":"info","component":"sim.harness","msg":"experiment started",
//    "run":"9f41c2d7","tid":1,"thread":"main","trace":3,"span":7,
//    "fields":{"seed":7,"environment":"lab"}}
//
// ts_us shares the trace epoch with TraceEvent.ts_us so log lines line up
// with Chrome-trace spans; trace/span come from the thread's ObsContext
// (obs/context.hpp), so lines emitted inside pool workers carry the
// originating trace id; run is a process-unique hex id also usable to join
// against the wimi.run.v1 ledger. Absent context members are omitted.
//
// The sink is lock-minimal: each line is serialized into a thread-local
// buffer off-lock, then appended with a single locked write. Destination
// and threshold come from WIMI_LOG_PATH ("" or "stderr" = stderr) and
// WIMI_LOG_LEVEL (trace|debug|info|warn|error|off, default info), both
// overridable at runtime.
//
// Prefer the WIMI_OBS_LOG_* macros in obs/obs.hpp: they honor the runtime
// kill-switch, skip field evaluation below the threshold, and compile out
// under WIMI_OBS_DISABLED.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"

namespace wimi::obs {

enum class LogLevel : int {
    kTrace = 0,
    kDebug = 1,
    kInfo = 2,
    kWarn = 3,
    kError = 4,
    kOff = 5,  ///< threshold only; not a valid line level
};

/// Canonical lowercase name ("trace", ..., "error", "off").
std::string_view level_name(LogLevel level) noexcept;

/// Parses a level name (case-insensitive; "warning" accepted for kWarn).
/// Returns false and leaves `out` untouched on unknown input.
bool parse_level(std::string_view text, LogLevel& out) noexcept;

/// One typed key/value pair attached to a log line.
struct LogField {
    enum class Kind { kString, kFloat, kInt, kUint, kBool };

    std::string key;
    Kind kind = Kind::kString;
    std::string str;
    double f = 0.0;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    bool b = false;
};

/// Field constructors: `obs::kv("seed", 7)`, `obs::kv("path", name)`, ...
inline LogField kv(std::string_view key, std::string_view value) {
    LogField field;
    field.key = std::string(key);
    field.kind = LogField::Kind::kString;
    field.str = std::string(value);
    return field;
}

inline LogField kv(std::string_view key, const char* value) {
    return kv(key, std::string_view(value == nullptr ? "" : value));
}

inline LogField kv(std::string_view key, const std::string& value) {
    return kv(key, std::string_view(value));
}

inline LogField kv(std::string_view key, bool value) {
    LogField field;
    field.key = std::string(key);
    field.kind = LogField::Kind::kBool;
    field.b = value;
    return field;
}

inline LogField kv(std::string_view key, double value) {
    LogField field;
    field.key = std::string(key);
    field.kind = LogField::Kind::kFloat;
    field.f = value;
    return field;
}

inline LogField kv(std::string_view key, float value) {
    return kv(key, static_cast<double>(value));
}

template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
LogField kv(std::string_view key, T value) {
    LogField field;
    field.key = std::string(key);
    if constexpr (std::is_signed_v<T>) {
        field.kind = LogField::Kind::kInt;
        field.i = static_cast<std::int64_t>(value);
    } else {
        field.kind = LogField::Kind::kUint;
        field.u = static_cast<std::uint64_t>(value);
    }
    return field;
}

/// Declared but never defined: the WIMI_OBS_DISABLED expansion of the log
/// macros references field expressions through an unevaluated call to
/// this, so they neither run nor draw unused-variable warnings.
template <typename... Fields>
int log_fields_unused(const Fields&...) noexcept;

/// The process-wide structured logger behind the WIMI_OBS_LOG_* macros.
class Logger {
public:
    /// The singleton. First use reads WIMI_LOG_LEVEL / WIMI_LOG_PATH.
    static Logger& instance();

    LogLevel level() const noexcept {
        return static_cast<LogLevel>(
            level_.load(std::memory_order_relaxed));
    }
    void set_level(LogLevel level) noexcept {
        level_.store(static_cast<int>(level), std::memory_order_relaxed);
    }

    /// True when a line at `level` would be written (threshold only; the
    /// macros additionally check the obs kill-switch).
    bool should_log(LogLevel level) const noexcept {
        return static_cast<int>(level) >=
                   level_.load(std::memory_order_relaxed) &&
               level != LogLevel::kOff;
    }

    /// Redirects the sink: "" or "stderr" selects stderr, anything else
    /// is opened for append. Throws wimi::Error when the file cannot be
    /// opened (the previous sink stays active).
    void set_path(const std::string& path);

    /// Process-unique hex id stamped on every line (regenerated per
    /// process; override for reproducible tests or to join runs).
    std::string run_id() const;
    void set_run_id(std::string id);

    /// Lines actually written to the sink since process start.
    std::uint64_t lines_written() const noexcept {
        return lines_written_.load(std::memory_order_relaxed);
    }

    /// Serializes and writes one line. Called via the macros, which gate
    /// on should_log(); calling below the threshold is a no-op.
    void log(LogLevel level, std::string_view component,
             std::string_view message,
             std::initializer_list<LogField> fields);

    void flush();

private:
    Logger();

    mutable std::mutex mutex_;  // guards sink_, run_id_
    std::FILE* sink_ = nullptr;  // nullptr = stderr
    std::string run_id_;
    std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
    std::atomic<std::uint64_t> lines_written_{0};
};

/// Macro guard: kill-switch plus level threshold, one relaxed load each.
inline bool log_enabled(LogLevel level) noexcept {
    return enabled() && Logger::instance().should_log(level);
}

/// Macro body: forwards to Logger::instance().log(...).
void log_emit(LogLevel level, std::string_view component,
              std::string_view message,
              std::initializer_list<LogField> fields);

}  // namespace wimi::obs
