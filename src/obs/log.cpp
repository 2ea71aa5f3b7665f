#include "obs/log.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace wimi::obs {
namespace {

constexpr std::string_view kLevelNames[] = {"trace", "debug", "info",
                                            "warn", "error", "off"};

bool iequals(std::string_view a, std::string_view b) noexcept {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

/// splitmix64: mixes wall clock and ASLR'd address bits into the per-
/// process run id. Not cryptographic — just collision-resistant enough to
/// join log streams from concurrent runs.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string generate_run_id() {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    std::uint64_t seed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
    static const int anchor = 0;
    seed ^= mix64(reinterpret_cast<std::uintptr_t>(&anchor));
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x",
                  static_cast<unsigned>(mix64(seed) & 0xffffffffu));
    return buf;
}

std::int64_t unix_ms_now() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

void append_field(std::string& out, const LogField& field) {
    out += '"';
    out += json::escape(field.key);
    out += "\":";
    switch (field.kind) {
        case LogField::Kind::kString:
            out += '"';
            out += json::escape(field.str);
            out += '"';
            break;
        case LogField::Kind::kFloat:
            out += json::number(field.f);
            break;
        case LogField::Kind::kInt:
            out += std::to_string(field.i);
            break;
        case LogField::Kind::kUint:
            out += std::to_string(field.u);
            break;
        case LogField::Kind::kBool:
            out += field.b ? "true" : "false";
            break;
    }
}

}  // namespace

std::string_view level_name(LogLevel level) noexcept {
    const int index = static_cast<int>(level);
    if (index < 0 || index > static_cast<int>(LogLevel::kOff)) {
        return "off";
    }
    return kLevelNames[index];
}

bool parse_level(std::string_view text, LogLevel& out) noexcept {
    for (int i = 0; i <= static_cast<int>(LogLevel::kOff); ++i) {
        if (iequals(text, kLevelNames[i])) {
            out = static_cast<LogLevel>(i);
            return true;
        }
    }
    if (iequals(text, "warning")) {
        out = LogLevel::kWarn;
        return true;
    }
    return false;
}

Logger::Logger() : run_id_(generate_run_id()) {
    if (const char* env = std::getenv("WIMI_LOG_LEVEL")) {
        LogLevel parsed = LogLevel::kInfo;
        if (parse_level(env, parsed)) {
            set_level(parsed);
        }
    }
    if (const char* env = std::getenv("WIMI_LOG_PATH")) {
        try {
            set_path(env);
        } catch (const wimi::Error&) {
            // Unopenable WIMI_LOG_PATH falls back to stderr rather than
            // aborting startup.
        }
    }
}

Logger& Logger::instance() {
    static Logger* logger = new Logger;  // leaked: usable during shutdown
    return *logger;
}

void Logger::set_path(const std::string& path) {
    if (path.empty() || path == "stderr") {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (sink_ != nullptr) {
            std::fclose(sink_);
            sink_ = nullptr;
        }
        return;
    }
    std::FILE* file = std::fopen(path.c_str(), "ab");
    ensure(file != nullptr, "obs: cannot open log sink " + path);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (sink_ != nullptr) {
        std::fclose(sink_);
    }
    sink_ = file;
}

std::string Logger::run_id() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return run_id_;
}

void Logger::set_run_id(std::string id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    run_id_ = std::move(id);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message,
                 std::initializer_list<LogField> fields) {
    if (!should_log(level)) {
        return;
    }

    // Serialize off-lock into a per-thread buffer; the mutex then guards
    // only one fwrite, so concurrent lines never interleave mid-record.
    static thread_local std::string line;
    line.clear();
    line += "{\"schema\":\"wimi.log.v1\",\"ts_us\":";
    line += json::number(trace_now_us());
    line += ",\"unix_ms\":";
    line += std::to_string(unix_ms_now());
    line += ",\"level\":\"";
    line += level_name(level);
    line += "\",\"component\":\"";
    line += json::escape(component);
    line += "\",\"msg\":\"";
    line += json::escape(message);
    line += "\",\"run\":\"";
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        line += json::escape(run_id_);
    }
    line += "\",\"tid\":";
    line += std::to_string(current_thread_tid());
    const std::string thread_name = current_thread_name();
    if (!thread_name.empty()) {
        line += ",\"thread\":\"";
        line += json::escape(thread_name);
        line += '"';
    }
    const ObsContext& ctx = current_context();
    if (ctx.trace_id != 0) {
        line += ",\"trace\":";
        line += std::to_string(ctx.trace_id);
    }
    if (ctx.span_id != 0) {
        line += ",\"span\":";
        line += std::to_string(ctx.span_id);
    }
    if (fields.size() != 0) {
        line += ",\"fields\":{";
        bool first = true;
        for (const LogField& field : fields) {
            if (!first) {
                line += ',';
            }
            first = false;
            append_field(line, field);
        }
        line += '}';
    }
    line += "}\n";

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::FILE* out = sink_ != nullptr ? sink_ : stderr;
        std::fwrite(line.data(), 1, line.size(), out);
    }
    lines_written_.fetch_add(1, std::memory_order_relaxed);
    registry().counter("log.lines").add(1);
    registry()
        .counter(std::string("log.lines.") +
                 std::string(level_name(level)))
        .add(1);
}

void Logger::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fflush(sink_ != nullptr ? sink_ : stderr);
}

void log_emit(LogLevel level, std::string_view component,
              std::string_view message,
              std::initializer_list<LogField> fields) {
    Logger::instance().log(level, component, message, fields);
}

}  // namespace wimi::obs
