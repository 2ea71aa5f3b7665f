#include "obs/exporter.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace wimi::obs {
namespace {

std::int64_t unix_ms_now() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Prometheus sample values, unlike JSON, can be non-finite.
std::string prometheus_number(double value) {
    if (std::isnan(value)) {
        return "NaN";
    }
    if (std::isinf(value)) {
        return value > 0 ? "+Inf" : "-Inf";
    }
    return json::number(value);
}

void render_histogram(std::string& out, const std::string& name,
                      const HistogramSummary& s) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bucket_le.size(); ++i) {
        cumulative += s.bucket_count[i];
        out += name + "_bucket{le=\"" + prometheus_number(s.bucket_le[i]) +
               "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(s.count) + "\n";
    out += name + "_sum " + prometheus_number(s.sum) + "\n";
    out += name + "_count " + std::to_string(s.count) + "\n";
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryExporterOptions options)
    : options_(std::move(options)) {
    if (!options_.path.empty()) {
        out_.open(options_.path, std::ios::binary | std::ios::app);
        ensure(out_.good(),
               "obs: cannot open telemetry sink " + options_.path);
    }
}

TelemetryExporter::~TelemetryExporter() {
    stop();
}

const MetricsRegistry& TelemetryExporter::source() const {
    return options_.source != nullptr ? *options_.source : registry();
}

void TelemetryExporter::start() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (thread_.joinable()) {
        return;
    }
    stop_requested_ = false;
    thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::stop() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_requested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
    }
    flush();
}

void TelemetryExporter::run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_requested_) {
        if (cv_.wait_for(lock, options_.interval,
                         [this] { return stop_requested_; })) {
            break;  // stop() performs the final flush
        }
        lock.unlock();
        const MetricsRegistry::Snapshot snap = source().snapshot();
        lock.lock();
        if (stop_requested_) {
            break;
        }
        flush_locked(snap);
    }
}

std::uint64_t TelemetryExporter::flush() {
    const MetricsRegistry::Snapshot snap = source().snapshot();
    const std::lock_guard<std::mutex> lock(mutex_);
    return flush_locked(snap);
}

std::uint64_t TelemetryExporter::flush_locked(
    const MetricsRegistry::Snapshot& snap) {
    ++seq_;
    std::string line = "{\"schema\":\"wimi.metrics.v1\",\"seq\":";
    line += std::to_string(seq_);
    line += ",\"unix_ms\":";
    line += std::to_string(unix_ms_now());
    line += ",\"uptime_us\":";
    line += json::number(trace_now_us());
    line += ',';
    line += metrics_body_json(snap);
    line += ",\"counter_deltas\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        const auto it = last_counters_.find(name);
        const std::uint64_t previous =
            it == last_counters_.end() ? 0 : it->second;
        // Counters are monotonic; a smaller current value means the
        // registry was reset between flushes — restart the delta base.
        const std::uint64_t delta =
            value >= previous ? value - previous : value;
        if (!first) {
            line += ',';
        }
        first = false;
        line += '"';
        line += json::escape(name);
        line += "\":";
        line += std::to_string(delta);
        last_counters_[name] = value;
    }
    line += "}}";

    if (out_.is_open()) {
        out_ << line << '\n';
        out_.flush();
    }
    last_line_ = std::move(line);
    return seq_;
}

std::uint64_t TelemetryExporter::sequence() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::string TelemetryExporter::last_line() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_line_;
}

std::string sanitize_prometheus_name(std::string_view name) {
    std::string out = "wimi_";
    out.reserve(name.size() + 5);
    for (const char c : name) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += keep ? c : '_';
    }
    return out;
}

std::string render_prometheus(const MetricsRegistry::Snapshot& snap) {
    std::string out;
    for (const auto& [name, value] : snap.counters) {
        const std::string prom = sanitize_prometheus_name(name);
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : snap.gauges) {
        const std::string prom = sanitize_prometheus_name(name);
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " + prometheus_number(value) + "\n";
    }
    for (const auto& [name, summary] : snap.histograms) {
        render_histogram(out, sanitize_prometheus_name(name), summary);
    }
    return out;
}

std::string prometheus_from_metrics_json(const json::Value& doc) {
    const json::Value* schema = doc.find("schema");
    ensure(schema != nullptr && schema->is_string() &&
               schema->string == "wimi.metrics.v1",
           "obs: not a wimi.metrics.v1 document");
    const json::Value* counters = doc.find("counters");
    const json::Value* gauges = doc.find("gauges");
    const json::Value* histograms = doc.find("histograms");
    ensure(counters != nullptr && counters->is_object() &&
               gauges != nullptr && gauges->is_object() &&
               histograms != nullptr && histograms->is_object(),
           "obs: wimi.metrics.v1 document missing metric sections");

    MetricsRegistry::Snapshot snap;
    for (const auto& [name, value] : counters->object) {
        ensure(value.is_number(), "obs: counter is not a number: " + name);
        snap.counters.emplace_back(
            name, static_cast<std::uint64_t>(value.num));
    }
    for (const auto& [name, value] : gauges->object) {
        // Non-finite gauges serialize as JSON null; surface them as NaN.
        snap.gauges.emplace_back(
            name, value.is_number()
                      ? value.num
                      : std::numeric_limits<double>::quiet_NaN());
    }
    for (const auto& [name, value] : histograms->object) {
        ensure(value.is_object(),
               "obs: histogram is not an object: " + name);
        HistogramSummary s;
        const auto number_member = [&](const char* key, double fallback) {
            const json::Value* member = value.find(key);
            return member != nullptr && member->is_number() ? member->num
                                                            : fallback;
        };
        s.count = static_cast<std::uint64_t>(number_member("count", 0.0));
        s.sum = number_member("sum", 0.0);
        const json::Value* le = value.find("bucket_le");
        const json::Value* count = value.find("bucket_count");
        if (le != nullptr && le->is_array() && count != nullptr &&
            count->is_array() &&
            le->array.size() == count->array.size()) {
            for (std::size_t i = 0; i < le->array.size(); ++i) {
                s.bucket_le.push_back(le->array[i].num);
                s.bucket_count.push_back(
                    static_cast<std::uint64_t>(count->array[i].num));
            }
        }
        snap.histograms.emplace_back(name, std::move(s));
    }
    return render_prometheus(snap);
}

}  // namespace wimi::obs
