// csi_trace_tool — inspect and generate WCSI trace files.
//
// The pipeline's examples and (with real hardware) the CSI Tool produce
// binary .wcsi traces; this utility answers "what's in this file?" from
// the command line.
//
//   csi_trace_tool info <trace>            header + per-antenna summary
//   csi_trace_tool verify <trace>          integrity check; exit 0 iff the
//                                          trace reads back clean (CRC,
//                                          finite values, no truncation)
//   csi_trace_tool pdp <trace> [antenna]   averaged power delay profile
//   csi_trace_tool phase <trace> <sc>      phase-difference stats at a SC
//   csi_trace_tool generate <trace> [env]  record a simulated capture
//                                          (env: hall | lab | library)
//   csi_trace_tool pipeline profile <trace> [--trace-out f] [--metrics-out f]
//                                          [--run-out f] [--log-out f]
//                                          [--telemetry-out f]
//                                          run the pre-processing pipeline
//                                          on the trace and export a Chrome
//                                          trace + metrics JSON (+ append a
//                                          wimi.run.v1 manifest to the
//                                          ledger, wimi.log.v1 lines to
//                                          --log-out, and periodic
//                                          wimi.metrics.v1 exporter
//                                          snapshots to --telemetry-out)
//   csi_trace_tool psi-ref <out.json> [env]
//                                          build a wimi.psi_ref.v1 feature
//                                          reference from the standard
//                                          experiment (drift baseline)
//   csi_trace_tool stream <trace> --baseline <trace> [--model m.wmdl]
//                                          [--window N] [--hop N]
//                                          [--policy strict|skip|stop]
//                                          [--follow] [--idle-timeout-ms N]
//                                          [--max-windows N] [--psi-ref f]
//                                          windowed streaming identification
//                                          over the trace (or, with
//                                          --follow, tail it while it grows)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/amplitude_denoising.hpp"
#include "core/antenna_selection.hpp"
#include "core/material_feature.hpp"
#include "core/phase_calibration.hpp"
#include "core/subcarrier_selection.hpp"
#include "core/wimi.hpp"
#include "core/streaming_feature.hpp"
#include "csi/pdp.hpp"
#include "csi/quality.hpp"
#include "csi/summary.hpp"
#include "csi/trace_io.hpp"
#include "dsp/circular.hpp"
#include "dsp/stats.hpp"
#include "exec/parallel.hpp"
#include "ml/drift.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"
#include "serve/inference.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"
#include "stream/pipeline.hpp"
#include "stream/tailer.hpp"

namespace {

using namespace wimi;

/// Prints what a lenient read dropped; returns true when the trace was
/// damaged in any way.
bool print_corruption_summary(const csi::TraceReadReport& report) {
    if (report.clean()) {
        return false;
    }
    std::cout << "  integrity:   DAMAGED\n";
    if (!report.header_ok) {
        std::cout << "    header unreadable (checksum or plausibility "
                     "failure); no frames recovered\n";
        return true;
    }
    std::cout << "    frames declared " << report.frames_declared
              << ", recovered " << report.frames_recovered << ", skipped "
              << report.frames_skipped << '\n'
              << "    CRC failures " << report.crc_failures
              << ", non-finite frames " << report.non_finite_frames
              << (report.truncated ? ", stream truncated" : "") << '\n';
    return true;
}

int cmd_info(const std::string& path) {
    // Streaming summarization: one frame record in memory at a time, so
    // `info` answers in O(antennas) memory however large the capture is.
    const csi::TraceSummary summary =
        csi::summarize_trace_file(path, {csi::ReadPolicy::kSkipCorrupt});
    const csi::TraceReadReport& report = summary.report;
    std::cout << path << ":\n"
              << "  format:      WCSI v" << report.version
              << (report.version >= csi::kTraceVersion2
                      ? " (little-endian, CRC32 header + frames)"
                      : " (legacy, no checksums)")
              << '\n'
              << "  packets:     " << summary.packets << '\n'
              << "  antennas:    " << report.antenna_count << '\n'
              << "  subcarriers: " << report.subcarrier_count << '\n';
    print_corruption_summary(report);
    if (summary.packets == 0) {
        return 0;
    }
    // Span between first and last packet: traces trimmed or merged from
    // longer captures do not start at t=0.
    std::cout << "  duration:    " << format_double(summary.duration_s(), 3)
              << " s\n\n";
    TextTable table({"antenna", "mean |H|", "amplitude CV", "mean RSSI"});
    for (std::size_t a = 0; a < summary.antennas.size(); ++a) {
        const csi::AntennaSummary& antenna = summary.antennas[a];
        // An all-zero antenna has mean amplitude 0; CV would be 0/0.
        const std::string cv =
            antenna.amplitude_mean > 0.0
                ? format_double(
                      antenna.amplitude_stddev / antenna.amplitude_mean, 3)
                : "n/a";
        table.add_row({std::to_string(a + 1),
                       format_double(antenna.amplitude_mean, 4), cv,
                       format_double(antenna.rssi_mean, 1) + " dB"});
    }
    table.print(std::cout);
    return 0;
}

/// Pre-ingestion integrity gate: exit 0 iff `path` reads back exactly as
/// written (header checksum, every frame CRC, all values finite, no
/// truncation). Scripts and benches run `csi_trace_tool verify t.wcsi &&
/// ...` before feeding a trace to the pipeline.
int cmd_verify(const std::string& path) {
    csi::TraceReadReport report;
    csi::read_trace_file(path, {csi::ReadPolicy::kSkipCorrupt}, &report);
    std::cout << path << ": WCSI v" << report.version << ", "
              << report.frames_recovered << "/" << report.frames_declared
              << " frames intact\n";
    if (print_corruption_summary(report)) {
        return 1;
    }
    std::cout << "  integrity:   OK"
              << (report.version < csi::kTraceVersion2
                      ? " (v1: structural checks only, no checksums)"
                      : "")
              << '\n';
    return 0;
}

int cmd_pdp(const std::string& path, std::size_t antenna) {
    const auto series = csi::read_trace_file(path);
    ensure(!series.empty(), "trace has no packets");
    const auto profile =
        csi::average_power_delay_profile(series, antenna, 128);
    std::cout << "Averaged power delay profile, antenna " << antenna + 1
              << " (bin = "
              << format_double(profile.bin_spacing_s * 1e9, 1) << " ns):\n";
    // ASCII profile over the first 40 bins (~1 us) — fewer when the
    // profile is shorter.
    const std::size_t bins =
        std::min<std::size_t>(40, profile.power.size());
    for (std::size_t i = 0; i < bins; ++i) {
        const double db = 10.0 * std::log10(profile.power[i] + 1e-12);
        const int bars =
            std::max(0, static_cast<int>((db + 40.0) * (60.0 / 40.0)));
        std::cout << format_double(
                         static_cast<double>(i) * profile.bin_spacing_s *
                             1e9,
                         0)
                  << "ns\t" << format_double(db, 1) << " dB\t"
                  << std::string(static_cast<std::size_t>(bars), '#')
                  << '\n';
    }
    std::cout << "RMS delay spread: "
              << format_double(csi::rms_delay_spread(profile) * 1e9, 1)
              << " ns\n";
    return 0;
}

int cmd_phase(const std::string& path, std::size_t subcarrier) {
    const auto series = csi::read_trace_file(path);
    ensure(series.antenna_count() >= 2,
           "phase statistics need at least two antennas");
    TextTable table({"antenna pair", "circ. mean (deg)",
                     "spread 95% (deg)", "Eq.7 variance"});
    for (const auto pair :
         core::all_antenna_pairs(series.antenna_count())) {
        const auto diffs =
            core::phase_difference_series(series, pair, subcarrier);
        table.add_row(
            {std::to_string(pair.first + 1) + "&" +
                 std::to_string(pair.second + 1),
             format_double(rad_to_deg(dsp::circular_mean(diffs)), 1),
             format_double(dsp::angular_spread_deg(diffs), 1),
             format_double(core::phase_difference_variance(series, pair,
                                                           subcarrier),
                           4)});
    }
    table.print(std::cout);
    return 0;
}

int cmd_generate(const std::string& path, const std::string& env_name) {
    sim::ScenarioConfig setup;
    if (env_name == "hall") {
        setup.environment = rf::Environment::kHall;
    } else if (env_name == "library") {
        setup.environment = rf::Environment::kLibrary;
    } else if (env_name == "lab" || env_name.empty()) {
        setup.environment = rf::Environment::kLab;
    } else {
        fail("unknown environment (use hall | lab | library)");
    }
    const sim::Scenario scenario(setup);
    const auto series = scenario.capture_reference(12345, 200);
    csi::write_trace_file(path, series);
    std::cout << "Wrote 200-packet " << env_name << " baseline capture to "
              << path << '\n';
    return 0;
}

/// Reads at most `max_frames` frames (0 = all) through the chunked
/// TraceReader — the bounded-ingest path for commands that genuinely
/// need frames in memory but must not inhale a multi-GB capture whole.
csi::CsiSeries read_trace_file_capped(
    const std::string& path, std::uint64_t max_frames,
    const csi::TraceReadOptions& options = {}) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "cannot open " + path);
    csi::TraceReader reader(in, options);
    csi::CsiSeries series;
    if (max_frames > 0 && reader.frames_declared() > 0) {
        series.frames.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(max_frames, reader.frames_declared())));
    }
    while (auto frame = reader.next()) {
        series.frames.push_back(std::move(*frame));
        if (max_frames > 0 && series.frames.size() >= max_frames) {
            break;
        }
    }
    return series;
}

/// Runs every pre-processing stage of the WiMi pipeline over `path` with
/// observability on, then exports the run's Chrome trace and metrics
/// report. The trace doubles as baseline and target (first half vs second
/// half), so feature extraction exercises the real code path without a
/// second file.
int cmd_pipeline_profile(const std::string& path,
                         const std::string& trace_out,
                         const std::string& metrics_out,
                         const std::string& run_out,
                         const std::string& log_out,
                         const std::string& telemetry_out,
                         std::uint64_t max_frames) {
    // Profiling a capture does not need more than max_frames packets in
    // memory; the cap keeps a pathological trace from sinking the tool.
    const auto series = read_trace_file_capped(path, max_frames);
    ensure(series.packet_count() >= 16,
           "pipeline profile: need at least 16 packets");
    ensure(series.antenna_count() >= 2,
           "pipeline profile: need at least two antennas");

    obs::set_enabled(true);
    obs::trace_reset();
    obs::registry().reset();
    // Both sinks append (a long-lived process keeps one stream); one
    // profiling run is a fresh capture, so start from empty files.
    if (!log_out.empty()) {
        std::filesystem::remove(log_out);
        obs::Logger::instance().set_path(log_out);
    }

    // Live telemetry: exporter thread appending wimi.metrics.v1 JSONL
    // snapshots while the pipeline runs, plus a final flush on stop.
    std::optional<obs::TelemetryExporter> exporter;
    if (!telemetry_out.empty()) {
        std::filesystem::remove(telemetry_out);
        exporter.emplace(obs::TelemetryExporterOptions{
            telemetry_out, std::chrono::milliseconds(50), nullptr});
        exporter->start();
    }

    obs::RunContext run("csi_trace_tool.pipeline");
    run.set_threads(exec::thread_count());
    {
        // The "configuration" of a profile run is the trace's shape: two
        // runs over the same capture geometry are comparable.
        std::ostringstream cfg;
        cfg << "trace_shape=" << series.packet_count() << 'x'
            << series.antenna_count() << 'x' << series.subcarrier_count();
        run.set_config(cfg.str());
        run.note("trace", path);
    }

    const auto pairs = core::all_antenna_pairs(series.antenna_count());
    {
        WIMI_TRACE_SPAN("pipeline.profile");
        WIMI_OBS_LOG_INFO("tool.pipeline", "pipeline profile started",
                          obs::kv("trace", path),
                          obs::kv("packets", series.packet_count()),
                          obs::kv("threads", exec::thread_count()));

        // Stage 0 — signal-quality probes over the raw trace: amplitude
        // CV per subcarrier, antenna-ratio stability, pair ranking.
        csi::record_signal_quality(series);
        core::rank_antenna_pairs(series);

        // Stage 1 — phase calibration quality (Fig. 12 diagnostics).
        for (const auto pair : pairs) {
            core::phase_calibration_stats(series, pair, 0);
        }

        // Stage 2 — good-subcarrier selection via the facade (Eq. 7 /
        // Fig. 6): calibrate() records the variance landscape and the
        // selected-count gauge.
        core::WimiConfig config;
        config.pairs = {pairs.begin(), pairs.end()};
        config.good_subcarrier_count =
            std::min<std::size_t>(4, series.subcarrier_count());
        core::Wimi wimi(config);
        wimi.calibrate(series);

        // Stage 3 — amplitude denoising, fanned out across the full
        // band on the process pool. Each task opens a span and logs at
        // debug, so this stage is also the live demonstration of
        // cross-thread trace-context propagation: worker spans resolve
        // to pipeline.denoise's trace (wimi_obs trace-check verifies).
        // The calling thread works its own fan-out and, on a loaded host,
        // could drain every task before a worker wakes, leaving no worker
        // span to verify. So when the fan-out is parallel at all, the
        // caller's first task waits until a worker has started one.
        {
            WIMI_TRACE_SPAN("pipeline.denoise");
            const std::size_t subcarriers = series.subcarrier_count();
            const std::thread::id caller = std::this_thread::get_id();
            std::atomic<bool> worker_started{subcarriers < 2 ||
                                             exec::thread_count() < 2};
            exec::parallel_for(
                subcarriers,
                [&](std::size_t sc) {
                    if (std::this_thread::get_id() != caller) {
                        worker_started.store(true);
                        worker_started.notify_one();
                    } else {
                        worker_started.wait(false);
                    }
                    WIMI_TRACE_SPAN("pipeline.denoise.subcarrier");
                    core::denoised_amplitude_ratio(series, pairs.front(),
                                                   sc, {});
                    WIMI_OBS_LOG_DEBUG("tool.pipeline",
                                       "subcarrier denoised",
                                       obs::kv("subcarrier", sc));
                },
                {.label = "pipeline.denoise"});
        }
        if (exporter.has_value()) {
            exporter->flush();  // mid-run snapshot: seq 1..n are live
        }

        // Stage 4 — features + SVM + identification. The trace doubles
        // as its own measurement: first half as baseline, second half as
        // target, and the reversed pairing as a second pseudo-material so
        // the SVM has two classes to separate.
        csi::CsiSeries baseline;
        csi::CsiSeries target;
        const std::size_t half = series.packet_count() / 2;
        baseline.frames.assign(series.frames.begin(),
                               series.frames.begin() +
                                   static_cast<long>(half));
        target.frames.assign(series.frames.begin() +
                                 static_cast<long>(half),
                             series.frames.end());
        wimi.enroll("first-vs-second", baseline, target);
        wimi.enroll("second-vs-first", target, baseline);
        wimi.train();
        wimi.identify(baseline, target);
        WIMI_OBS_LOG_INFO("tool.pipeline", "pipeline profile complete");
    }

    if (exporter.has_value()) {
        exporter->stop();  // final flush with the complete counters
    }
    obs::Logger::instance().flush();
    obs::write_chrome_trace(trace_out);
    obs::write_metrics_json(metrics_out);
    const std::string ledger = run.append_to_default_ledger(run_out);

    // Per-stage digest of the spans just recorded.
    struct StageTotals {
        std::size_t calls = 0;
        double total_us = 0.0;
    };
    std::map<std::string, StageTotals> stages;
    for (const obs::TraceEvent& event : obs::trace_snapshot()) {
        StageTotals& totals = stages[event.name];
        ++totals.calls;
        totals.total_us += event.dur_us;
    }
    TextTable table({"stage", "calls", "total ms"});
    for (const auto& [name, totals] : stages) {
        table.add_row({name, std::to_string(totals.calls),
                       format_double(totals.total_us / 1e3, 3)});
    }
    table.print(std::cout);
    std::cout << "\nExec threads: " << exec::thread_count() << " of "
              << exec::hardware_threads()
              << " hardware (override with WIMI_THREADS)\n"
              << "Chrome trace: " << trace_out << " (load in "
              << "chrome://tracing or ui.perfetto.dev)\n"
              << "Metrics:      " << metrics_out << '\n';
    if (!ledger.empty()) {
        std::cout << "Run ledger:   " << ledger << " (wimi.run.v1)\n";
    }
    if (!log_out.empty()) {
        std::cout << "Log:          " << log_out << " (wimi.log.v1)\n";
    }
    if (!telemetry_out.empty()) {
        std::cout << "Telemetry:    " << telemetry_out
                  << " (wimi.metrics.v1 time-series)\n";
    }
    return 0;
}

/// Builds a `wimi.psi_ref.v1` feature-distribution reference from the
/// standard identification experiment in `env_name`. Checked in under
/// bench/baselines/, it lets later runs report feature drift (PSI) via
/// ExperimentConfig::psi_reference_path.
int cmd_psi_ref(const std::string& out_path, const std::string& env_name) {
    sim::ExperimentConfig config;
    if (env_name == "hall") {
        config.scenario.environment = rf::Environment::kHall;
    } else if (env_name == "library") {
        config.scenario.environment = rf::Environment::kLibrary;
    } else if (env_name == "lab" || env_name.empty()) {
        config.scenario.environment = rf::Environment::kLab;
    } else {
        fail("unknown environment (use hall | lab | library)");
    }
    const core::Wimi wimi = sim::make_calibrated_wimi(config);
    const ml::Dataset data = sim::build_feature_dataset(config, wimi);
    const ml::PsiReference ref = ml::make_psi_reference(data);
    ml::save_psi_reference(out_path, ref);
    std::cout << "Wrote " << ref.feature_count() << "-feature PSI reference ("
              << ref.sample_count << " samples, config digest "
              << obs::config_digest(sim::serialize_config(config)) << ") to "
              << out_path << '\n';
    return 0;
}

struct StreamArgs {
    std::string baseline;
    std::string model;
    std::string psi_ref;
    std::size_t window = 64;
    std::size_t hop = 16;
    csi::ReadPolicy policy = csi::ReadPolicy::kStrict;
    bool follow = false;
    std::uint32_t idle_timeout_ms = 2000;
    std::uint64_t max_windows = 0;  ///< 0 = unbounded
};

/// Windowed streaming identification over a trace — or, with --follow,
/// over a file that is still growing (TraceTailer). Memory stays
/// O(window) however long the stream runs.
int cmd_stream(const std::string& target_path, const StreamArgs& args) {
    ensure(!args.baseline.empty(), "stream: --baseline is required");
    const csi::CsiSeries baseline = csi::read_trace_file(args.baseline);

    // With --model classify against a persisted artifact; without one,
    // train the standard lab experiment in-process (deterministic, and
    // geometry-compatible with `generate`d traces).
    const serve::InferenceEngine engine =
        args.model.empty()
            ? serve::InferenceEngine(sim::train_experiment_model({}))
            : serve::InferenceEngine::load(args.model);
    const core::Model& model = engine.model();

    stream::StreamConfig config;
    config.window = args.window;
    config.hop = args.hop;
    std::optional<ml::PsiReference> psi_ref;
    if (!args.psi_ref.empty()) {
        psi_ref = ml::load_psi_reference(args.psi_ref);
    }
    stream::StreamingPipeline pipeline(
        config,
        core::WindowFeatureExtractor(baseline, model.pairs,
                                     model.subcarriers, model.feature),
        model, std::move(psi_ref));

    const auto emit = [](const stream::WindowResult& r) {
        std::cout << "window " << r.window_index << "  frames ["
                  << r.first_frame << ", " << r.first_frame + r.frame_count
                  << ")  t=" << format_double(r.first_timestamp_s, 2)
                  << ".." << format_double(r.last_timestamp_s, 2)
                  << "s  raw=" << r.raw_name << "  stable="
                  << (r.stable_name.empty() ? std::string("?")
                                            : r.stable_name);
        if (r.psi_valid) {
            std::cout << "  psi=" << format_double(r.psi, 3)
                      << (r.drift_gated ? " (drift-gated)" : "");
        }
        std::cout << '\n';
        if (r.changed) {
            std::cout << "material change at window " << r.window_index
                      << " (t=" << format_double(r.last_timestamp_s, 2)
                      << "s): now " << r.stable_name << '\n';
        }
    };

    std::uint64_t emitted = 0;
    const auto feed = [&](const csi::CsiFrame& frame) {
        if (auto result = pipeline.push(frame)) {
            emit(*result);
            ++emitted;
        }
        return args.max_windows == 0 || emitted < args.max_windows;
    };

    if (args.follow) {
        stream::TailerConfig tail;
        tail.policy = args.policy;
        tail.idle_timeout_ms = args.idle_timeout_ms;
        stream::TraceTailer tailer(target_path, tail);
        while (auto frame = tailer.next()) {
            if (!feed(*frame)) {
                break;
            }
        }
    } else {
        std::ifstream in(target_path, std::ios::binary);
        ensure(in.is_open(), "cannot open " + target_path);
        csi::TraceReader reader(in, {args.policy});
        while (auto frame = reader.next()) {
            if (!feed(*frame)) {
                break;
            }
        }
    }

    std::cout << "stream done: " << pipeline.frames_consumed()
              << " frames, " << pipeline.windows_emitted() << " windows, "
              << pipeline.changes() << " material changes, "
              << pipeline.drift_gated_windows() << " drift-gated\n";
    return 0;
}

int usage() {
    std::cerr << "usage:\n"
              << "  csi_trace_tool info <trace.wcsi>\n"
              << "  csi_trace_tool verify <trace.wcsi>\n"
              << "  csi_trace_tool pdp <trace.wcsi> [antenna]\n"
              << "  csi_trace_tool phase <trace.wcsi> <subcarrier>\n"
              << "  csi_trace_tool generate <trace.wcsi> [hall|lab|library]\n"
              << "  csi_trace_tool pipeline profile <trace.wcsi>"
              << " [--trace-out out.json] [--metrics-out out.json]"
              << " [--run-out ledger.jsonl] [--log-out log.jsonl]"
              << " [--telemetry-out telemetry.jsonl] [--max-frames n]\n"
              << "  csi_trace_tool psi-ref <out.json> [hall|lab|library]\n"
              << "  csi_trace_tool stream <trace.wcsi> --baseline b.wcsi"
              << " [--model m.wmdl] [--window n] [--hop n]"
              << " [--policy strict|skip|stop] [--follow]"
              << " [--idle-timeout-ms n] [--max-windows n]"
              << " [--psi-ref ref.json]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string_view command = argv[1];
    const std::string path = argv[2];
    try {
        if (command == "pipeline") {
            if (argc < 4 || std::string_view(argv[2]) != "profile") {
                return usage();
            }
            const std::string trace_path = argv[3];
            std::string trace_out = trace_path + ".trace.json";
            std::string metrics_out = trace_path + ".metrics.json";
            std::string run_out;
            std::string log_out;
            std::string telemetry_out;
            std::uint64_t max_frames = 0;
            if ((argc - 4) % 2 != 0) {
                return usage();  // a flag is missing its value
            }
            for (int i = 4; i + 1 < argc; i += 2) {
                const std::string_view flag = argv[i];
                if (flag == "--trace-out") {
                    trace_out = argv[i + 1];
                } else if (flag == "--metrics-out") {
                    metrics_out = argv[i + 1];
                } else if (flag == "--run-out") {
                    run_out = argv[i + 1];
                } else if (flag == "--log-out") {
                    log_out = argv[i + 1];
                } else if (flag == "--telemetry-out") {
                    telemetry_out = argv[i + 1];
                } else if (flag == "--max-frames") {
                    max_frames = std::stoull(argv[i + 1]);
                } else {
                    return usage();
                }
            }
            return cmd_pipeline_profile(trace_path, trace_out,
                                        metrics_out, run_out, log_out,
                                        telemetry_out, max_frames);
        }
        if (command == "stream") {
            StreamArgs args;
            for (int i = 3; i < argc; ++i) {
                const std::string_view flag = argv[i];
                if (flag == "--follow") {
                    args.follow = true;
                    continue;
                }
                if (i + 1 >= argc) {
                    return usage();  // every other flag takes a value
                }
                const std::string value = argv[++i];
                if (flag == "--baseline") {
                    args.baseline = value;
                } else if (flag == "--model") {
                    args.model = value;
                } else if (flag == "--psi-ref") {
                    args.psi_ref = value;
                } else if (flag == "--window") {
                    args.window = std::stoul(value);
                } else if (flag == "--hop") {
                    args.hop = std::stoul(value);
                } else if (flag == "--idle-timeout-ms") {
                    args.idle_timeout_ms =
                        static_cast<std::uint32_t>(std::stoul(value));
                } else if (flag == "--max-windows") {
                    args.max_windows = std::stoull(value);
                } else if (flag == "--policy") {
                    if (value == "strict") {
                        args.policy = csi::ReadPolicy::kStrict;
                    } else if (value == "skip") {
                        args.policy = csi::ReadPolicy::kSkipCorrupt;
                    } else if (value == "stop") {
                        args.policy = csi::ReadPolicy::kStopAtCorruption;
                    } else {
                        return usage();
                    }
                } else {
                    return usage();
                }
            }
            return cmd_stream(path, args);
        }
        if (command == "psi-ref") {
            return cmd_psi_ref(path, argc > 3 ? argv[3] : "lab");
        }
        if (command == "info") {
            return cmd_info(path);
        }
        if (command == "verify") {
            return cmd_verify(path);
        }
        if (command == "pdp") {
            return cmd_pdp(path,
                           argc > 3 ? std::stoul(argv[3]) - 1 : 0);
        }
        if (command == "phase") {
            if (argc < 4) {
                return usage();
            }
            return cmd_phase(path, std::stoul(argv[3]) - 1);
        }
        if (command == "generate") {
            return cmd_generate(path, argc > 3 ? argv[3] : "lab");
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
