#include "obs/run_context.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "simd/simd.hpp"

namespace wimi::obs {
namespace {

std::string compiler_string() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + std::to_string(__GNUC__) + "." +
           std::to_string(__GNUC_MINOR__) + "." +
           std::to_string(__GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
}

}  // namespace

BuildInfo build_info() {
    BuildInfo info;
#if defined(WIMI_BUILD_TYPE)
    info.build_type = WIMI_BUILD_TYPE;
#endif
#if defined(WIMI_BUILD_SANITIZE)
    info.sanitize = WIMI_BUILD_SANITIZE;
#endif
    info.compiler = compiler_string();
    info.simd = simd::effective_isa();
#if defined(WIMI_OBS_DISABLED)
    info.obs_compiled_in = false;
#else
    info.obs_compiled_in = true;
#endif
    return info;
}

std::string config_digest(std::string_view serialized_config) {
    const std::uint32_t crc =
        crc32(serialized_config.data(), serialized_config.size());
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

RunContext::RunContext(std::string tool)
    : tool_(std::move(tool)),
      wall_start_(std::chrono::steady_clock::now()),
      cpu_start_(std::clock()),
      unix_time_(static_cast<std::int64_t>(std::time(nullptr))) {}

void RunContext::set_seed(std::uint64_t seed) {
    seed_ = seed;
    seed_set_ = true;
}

void RunContext::set_threads(std::size_t threads) { threads_ = threads; }

void RunContext::set_config(std::string_view serialized_config) {
    config_digest_ = config_digest(serialized_config);
}

void RunContext::note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key),
                        '"' + json::escape(value) + '"');
}

void RunContext::note(std::string key, double value) {
    notes_.emplace_back(std::move(key), json::number(value));
}

std::string RunContext::manifest_json(const MetricsRegistry& reg) const {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start_;
    const double cpu_s = static_cast<double>(std::clock() - cpu_start_) /
                         static_cast<double>(CLOCKS_PER_SEC);
    const BuildInfo build = build_info();

    std::string out = "{\"schema\":\"wimi.run.v1\",\"tool\":\"";
    out += json::escape(tool_);
    out += "\",\"unix_time\":" + std::to_string(unix_time_);
    out += ",\"config_digest\":";
    out += config_digest_.empty()
               ? "null"
               : '"' + json::escape(config_digest_) + '"';
    out += ",\"seed\":";
    out += seed_set_ ? std::to_string(seed_) : "null";
    out += ",\"threads\":" + std::to_string(threads_);
    out += ",\"hardware_threads\":" +
           std::to_string(std::thread::hardware_concurrency());
    out += ",\"build\":{\"type\":\"" + json::escape(build.build_type);
    out += "\",\"sanitize\":\"" + json::escape(build.sanitize);
    out += "\",\"compiler\":\"" + json::escape(build.compiler);
    out += "\",\"simd\":\"" + json::escape(build.simd);
    out += "\",\"obs_compiled_in\":";
    out += build.obs_compiled_in ? "true" : "false";
    out += "},\"wall_s\":" + json::number(wall.count());
    out += ",\"cpu_s\":" + json::number(cpu_s);
    out += ",\"notes\":{";
    bool first = true;
    for (const auto& [key, value] : notes_) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += '"' + json::escape(key) + "\":" + value;
    }
    out += "},\"metrics\":";
    out += metrics_to_json(reg);
    out += '}';
    return out;
}

void RunContext::append_to_ledger(const std::string& path,
                                  const MetricsRegistry& reg) const {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    ensure(out.good(), "run ledger: cannot open " + path);
    out << manifest_json(reg) << '\n';
    out.flush();
    ensure(out.good(), "run ledger: failed writing " + path);
}

std::string RunContext::append_to_default_ledger(
    const std::string& fallback_path, const MetricsRegistry& reg) const {
    const char* env = std::getenv("WIMI_RUN_LEDGER");
    const std::string path =
        (env != nullptr && *env != '\0') ? env : fallback_path;
    if (path.empty()) {
        return "";
    }
    try {
        append_to_ledger(path, reg);
    } catch (const std::exception& e) {
        std::cerr << "warning: " << e.what() << '\n';
        return "";
    }
    return path;
}

}  // namespace wimi::obs
