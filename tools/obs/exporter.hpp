// Periodic metrics export: append-only wimi.metrics.v1 JSONL time-series
// plus a Prometheus text-exposition rendering.
//
// A TelemetryExporter snapshots a MetricsRegistry either on demand
// (flush()) or on a fixed interval from a background thread (start()).
// Each flush appends one self-contained JSON line to the sink:
//
//   {"schema":"wimi.metrics.v1","seq":3,"unix_ms":1754700000123,
//    "uptime_us":1520000.5,
//    "counters":{...},"gauges":{...},"histograms":{...},
//    "counter_deltas":{"csi.packets_captured":250,...}}
//
// seq starts at 1 and is strictly increasing within one exporter;
// counter_deltas holds each counter's increase since the previous flush
// (first flush: since zero), so rate computation needs no client state.
// The counters/gauges/histograms members are byte-identical in shape to
// the batch report (obs/report.hpp) — any wimi.metrics.v1 consumer reads
// both.
//
// render_prometheus() produces the same snapshot in Prometheus text
// format (counters/gauges verbatim, histograms as cumulative _bucket/
// _sum/_count series); prometheus_from_metrics_json() does the same from
// an already-serialized wimi.metrics.v1 document, which is how
// `wimi_obs export-prom` converts report or exporter output offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <condition_variable>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace wimi::obs {

struct TelemetryExporterOptions {
    /// JSONL destination, opened for append. Empty = no file: flushes
    /// still advance seq and are retained in last_line() (tests, tools).
    std::string path;
    /// Interval between automatic flushes once start() is called.
    std::chrono::milliseconds interval{1000};
    /// Registry to snapshot; nullptr = the process-global registry().
    const MetricsRegistry* source = nullptr;
};

class TelemetryExporter {
public:
    /// Opens the sink (throws wimi::Error when the path cannot be
    /// opened). Does not start the background thread.
    explicit TelemetryExporter(TelemetryExporterOptions options);

    /// stop()s and closes the sink.
    ~TelemetryExporter();

    TelemetryExporter(const TelemetryExporter&) = delete;
    TelemetryExporter& operator=(const TelemetryExporter&) = delete;

    /// Launches the periodic flush thread. Idempotent.
    void start();

    /// Stops the periodic thread (if running) and performs a final
    /// flush. Safe to call repeatedly or without start().
    void stop();

    /// On-demand snapshot + append. Thread-safe (callable concurrently
    /// with the periodic thread). Returns the sequence number written.
    std::uint64_t flush();

    /// Last sequence number written (0 = nothing exported yet).
    std::uint64_t sequence() const;

    /// The most recently exported line (without trailing newline).
    std::string last_line() const;

private:
    const MetricsRegistry& source() const;
    std::uint64_t flush_locked(const MetricsRegistry::Snapshot& snap);
    void run();

    TelemetryExporterOptions options_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::ofstream out_;
    std::uint64_t seq_ = 0;
    std::map<std::string, std::uint64_t> last_counters_;
    std::string last_line_;
    bool stop_requested_ = false;
    std::thread thread_;
};

/// Maps a dotted metric name onto the Prometheus grammar: "wimi_" prefix,
/// every character outside [a-zA-Z0-9_:] replaced with '_'
/// ("csi.packets_captured" -> "wimi_csi_packets_captured"). Distinct
/// dotted names can collide after sanitization; the dotted scheme used by
/// the pipeline never does.
std::string sanitize_prometheus_name(std::string_view name);

/// Prometheus text exposition of one snapshot: `# TYPE` comment then
/// sample lines per metric; histograms as cumulative `_bucket{le="..."}`
/// series plus `_sum` and `_count`.
std::string render_prometheus(const MetricsRegistry::Snapshot& snap);

/// Same rendering from a parsed wimi.metrics.v1 document (batch report or
/// one exporter JSONL line). Throws wimi::Error when the document lacks
/// the wimi.metrics.v1 members.
std::string prometheus_from_metrics_json(const json::Value& doc);

}  // namespace wimi::obs
