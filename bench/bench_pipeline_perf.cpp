// Engineering micro-benchmarks (google-benchmark): throughput of the
// pipeline stages. Not a paper figure — the paper runs at 100 packets/s,
// and these numbers show the pipeline is orders of magnitude faster than
// real time on commodity CPUs.
//
// After the google-benchmark suite, the binary measures the cost of the
// observability layer itself: end-to-end identify throughput with the
// instrumentation live vs. killed (obs::set_enabled(false), the same
// one-atomic-load floor a WIMI_OBS_DISABLED build pays at most). The
// comparison is printed and written to BENCH_pipeline.json so CI can
// track the perf/quality trajectory.
//
// Last, a thread-scaling sweep over the exec layer: dataset build +
// cross-validated evaluation at 1/2/4/8 threads, with a bit-identity
// check of every width against the serial run (the exec determinism
// contract), written to BENCH_parallel.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/amplitude_denoising.hpp"
#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "core/subcarrier_selection.hpp"
#include "core/wimi.hpp"
#include "csi/soa.hpp"
#include "dsp/filters.hpp"
#include "dsp/wavelet_denoise.hpp"
#include "exec/parallel.hpp"
#include "ml/svm.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"
#include "simd/simd.hpp"
#include "stream/pipeline.hpp"

namespace {

using namespace wimi;

const sim::Scenario& lab_scenario() {
    static const sim::Scenario scenario{[] {
        sim::ScenarioConfig config;
        config.environment = rf::Environment::kLab;
        return config;
    }()};
    return scenario;
}

void BM_CaptureSimulation(benchmark::State& state) {
    const auto& scenario = lab_scenario();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scenario.capture_measurement(rf::Liquid::kMilk, seed++));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 40);
}
BENCHMARK(BM_CaptureSimulation)->Unit(benchmark::kMillisecond);

void BM_WaveletDenoise(benchmark::State& state) {
    Rng rng(3);
    std::vector<double> series(static_cast<std::size_t>(state.range(0)));
    for (double& v : series) {
        v = 5.0 + rng.gaussian(0.0, 0.1);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp::wavelet_correlation_denoise(series));
    }
}
BENCHMARK(BM_WaveletDenoise)->Arg(64)->Arg(256)->Arg(1024);

void BM_SubcarrierSelection(benchmark::State& state) {
    const auto series = lab_scenario().capture_reference(9, 100);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::select_good_subcarriers(series, {0, 1}, 4));
    }
}
BENCHMARK(BM_SubcarrierSelection)->Unit(benchmark::kMillisecond);

void BM_FeatureExtraction(benchmark::State& state) {
    const auto& scenario = lab_scenario();
    const auto m = scenario.capture_measurement(rf::Liquid::kPepsi, 77);
    const std::vector<core::AntennaPair> pairs = {{0, 1}, {1, 2}, {0, 2}};
    const std::vector<std::size_t> subcarriers = {5, 12, 22, 27};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::extract_feature_vector(
            m.baseline, m.target, pairs, subcarriers, {}));
    }
}
BENCHMARK(BM_FeatureExtraction);

void BM_IdentifyEndToEnd(benchmark::State& state) {
    const auto& scenario = lab_scenario();
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(5));
    Rng rng(11);
    for (const rf::Liquid liquid :
         {rf::Liquid::kPureWater, rf::Liquid::kMilk, rf::Liquid::kHoney}) {
        for (int rep = 0; rep < 6; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            wimi.enroll(rf::liquid_name(liquid), m.baseline, m.target);
        }
    }
    wimi.train();
    const auto unknown =
        scenario.capture_measurement(rf::Liquid::kMilk, 999);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            wimi.identify(unknown.baseline, unknown.target));
    }
}
BENCHMARK(BM_IdentifyEndToEnd);

void BM_SvmTraining(benchmark::State& state) {
    Rng rng(13);
    ml::Dataset data(8);
    for (int label = 0; label < 10; ++label) {
        for (int i = 0; i < 20; ++i) {
            std::vector<double> x(8);
            for (double& v : x) {
                v = rng.gaussian(static_cast<double>(label), 0.3);
            }
            data.add(x, label);
        }
    }
    for (auto _ : state) {
        ml::MulticlassSvm svm;
        svm.train(data);
        benchmark::DoNotOptimize(svm);
    }
}
BENCHMARK(BM_SvmTraining)->Unit(benchmark::kMillisecond);

/// Identifications per second over `iterations` end-to-end identify calls
/// on a trained instance.
double measure_identify_rate(const core::Wimi& wimi,
                             const sim::MeasurementPair& unknown,
                             std::size_t iterations) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
        benchmark::DoNotOptimize(
            wimi.identify(unknown.baseline, unknown.target));
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return static_cast<double>(iterations) / elapsed.count();
}

/// Telemetry-plane micro-costs: structured-log line throughput (with
/// JSONL validation of everything written) and the exporter's per-flush
/// cost against the live global registry. The booleans are
/// machine-independent and gated by bench/baselines/pipeline_perf.json;
/// the rates are informational.
struct TelemetryBench {
    double log_lines_per_s = 0.0;
    bool log_valid_jsonl = false;
    double exporter_flush_us_mean = 0.0;
    bool exporter_seq_monotonic = false;
    bool exporter_lines_valid = false;
};

TelemetryBench run_telemetry_microbench() {
    TelemetryBench result;
    const auto tmp = std::filesystem::temp_directory_path();

    // Log-line throughput: a typical three-field line at info level,
    // written to a file sink, then re-read and parsed line by line.
    const std::string log_path =
        (tmp / "wimi_bench_log.jsonl").string();
    std::filesystem::remove(log_path);
    obs::Logger::instance().set_path(log_path);
    constexpr std::size_t kLines = 5000;
    const auto log_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kLines; ++i) {
        WIMI_OBS_LOG_INFO("bench.pipeline", "throughput probe",
                          obs::kv("i", i), obs::kv("stage", "identify"),
                          obs::kv("score", 3.25));
    }
    obs::Logger::instance().flush();
    const std::chrono::duration<double> log_elapsed =
        std::chrono::steady_clock::now() - log_start;
    result.log_lines_per_s =
        static_cast<double>(kLines) / log_elapsed.count();
    obs::Logger::instance().set_path("");

    // A WIMI_OBS_DISABLED build compiles the log macros out entirely, so
    // the valid-JSONL check expects an empty sink there.
#if defined(WIMI_OBS_DISABLED)
    constexpr std::size_t kExpectedLines = 0;
#else
    constexpr std::size_t kExpectedLines = kLines;
#endif
    std::size_t parsed = 0;
    try {
        std::ifstream in(log_path);
        std::string line;
        while (std::getline(in, line)) {
            const obs::json::Value doc = obs::json::parse(line);
            if (doc.find("schema") != nullptr &&
                doc.find("schema")->string == "wimi.log.v1") {
                ++parsed;
            }
        }
        result.log_valid_jsonl = parsed == kExpectedLines;
    } catch (const std::exception&) {
        result.log_valid_jsonl = false;
    }
    std::filesystem::remove(log_path);

    // Exporter flush cost against whatever the google-benchmark suite
    // left in the global registry — a realistic snapshot payload.
    const std::string telemetry_path =
        (tmp / "wimi_bench_telemetry.jsonl").string();
    std::filesystem::remove(telemetry_path);
    constexpr std::size_t kFlushes = 100;
    {
        obs::TelemetryExporterOptions options;
        options.path = telemetry_path;
        obs::TelemetryExporter exporter(std::move(options));
        const auto flush_start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < kFlushes; ++i) {
            exporter.flush();
        }
        const std::chrono::duration<double, std::micro> flush_elapsed =
            std::chrono::steady_clock::now() - flush_start;
        result.exporter_flush_us_mean =
            flush_elapsed.count() / static_cast<double>(kFlushes);
    }  // destructor adds one final flush

    try {
        std::ifstream in(telemetry_path);
        std::string line;
        double prev_seq = 0.0;
        std::size_t lines = 0;
        bool monotonic = true;
        while (std::getline(in, line)) {
            const obs::json::Value doc = obs::json::parse(line);
            const obs::json::Value* seq = doc.find("seq");
            if (seq == nullptr || !seq->is_number() ||
                seq->num <= prev_seq) {
                monotonic = false;
            } else {
                prev_seq = seq->num;
            }
            ++lines;
        }
        result.exporter_lines_valid = lines == kFlushes + 1;
        result.exporter_seq_monotonic = monotonic && lines > 0;
    } catch (const std::exception&) {
        result.exporter_lines_valid = false;
        result.exporter_seq_monotonic = false;
    }
    std::filesystem::remove(telemetry_path);
    return result;
}

/// Observability overhead A/B on the end-to-end identify path. Returns
/// the overhead percentage (positive = obs-on is slower). `simd_json` is
/// the SIMD A/B object appended to the same report.
double run_obs_overhead_comparison(const char* report_path,
                                   const std::string& simd_json,
                                   const std::string& stream_json) {
    const auto& scenario = lab_scenario();
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(5));
    Rng rng(11);
    for (const rf::Liquid liquid :
         {rf::Liquid::kPureWater, rf::Liquid::kMilk, rf::Liquid::kHoney}) {
        for (int rep = 0; rep < 6; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            wimi.enroll(rf::liquid_name(liquid), m.baseline, m.target);
        }
    }
    wimi.train();
    const auto unknown =
        scenario.capture_measurement(rf::Liquid::kMilk, 999);

    constexpr std::size_t kWarmup = 30;
    constexpr std::size_t kIterations = 200;
    constexpr int kRounds = 3;

    // The obs-on arm runs with the structured logger live at its default
    // (info) level and routed to a file sink — the 5% budget covers
    // metrics + spans + log-threshold checks together, the configuration
    // a production run would use.
    const std::string overhead_log_path =
        (std::filesystem::temp_directory_path() / "wimi_bench_overhead.jsonl")
            .string();
    std::filesystem::remove(overhead_log_path);
    obs::Logger::instance().set_path(overhead_log_path);
    obs::Logger::instance().set_level(obs::LogLevel::kInfo);

    measure_identify_rate(wimi, unknown, kWarmup);
    // Interleave the arms and keep each arm's best round so transient
    // machine noise (frequency scaling, a background task) does not land
    // on one side only.
    double rate_on = 0.0;
    double rate_off = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        obs::set_enabled(true);
        rate_on = std::max(
            rate_on, measure_identify_rate(wimi, unknown, kIterations));
        obs::set_enabled(false);
        rate_off = std::max(
            rate_off, measure_identify_rate(wimi, unknown, kIterations));
    }
    obs::set_enabled(true);
    obs::Logger::instance().set_path("");
    std::filesystem::remove(overhead_log_path);

    const double overhead_percent =
        (rate_off - rate_on) / rate_off * 100.0;
#if defined(WIMI_OBS_DISABLED)
    const bool compiled_in = false;
#else
    const bool compiled_in = true;
#endif

    const TelemetryBench telemetry = run_telemetry_microbench();

    std::cout << "\n--- observability overhead (end-to-end identify) ---\n"
              << "obs compiled in:   "
              << (compiled_in ? "yes" : "no (WIMI_OBS_DISABLED)") << '\n'
              << "identify/s, obs on (logger live):  " << rate_on << '\n'
              << "identify/s, obs off:               " << rate_off << '\n'
              << "overhead:            " << overhead_percent << " %"
              << (overhead_percent <= 5.0 ? "  (within 5% budget)"
                                          : "  (OVER 5% budget)")
              << '\n'
              << "log lines/s:         " << telemetry.log_lines_per_s
              << (telemetry.log_valid_jsonl ? "  (all lines valid JSONL)"
                                            : "  (INVALID JSONL)")
              << '\n'
              << "exporter flush:      "
              << telemetry.exporter_flush_us_mean << " us/flush"
              << (telemetry.exporter_seq_monotonic &&
                          telemetry.exporter_lines_valid
                      ? "  (seq strictly increasing)"
                      : "  (SEQ/STREAM INVALID)")
              << '\n';

    std::FILE* out = std::fopen(report_path, "w");
    if (out != nullptr) {
        std::fprintf(out,
                     "{\"schema\":\"wimi.bench_pipeline.v1\","
                     "\"obs_compiled_in\":%s,"
                     "\"identify_per_s_obs_on\":%.3f,"
                     "\"identify_per_s_obs_off\":%.3f,"
                     "\"overhead_percent\":%.3f,"
                     "\"log_lines_per_s\":%.1f,"
                     "\"log_valid_jsonl\":%s,"
                     "\"exporter_flush_us_mean\":%.3f,"
                     "\"exporter_seq_monotonic\":%s,"
                     "\"exporter_lines_valid\":%s,"
                     "\"simd\":%s,"
                     "\"stream\":%s}\n",
                     compiled_in ? "true" : "false", rate_on, rate_off,
                     overhead_percent, telemetry.log_lines_per_s,
                     telemetry.log_valid_jsonl ? "true" : "false",
                     telemetry.exporter_flush_us_mean,
                     telemetry.exporter_seq_monotonic ? "true" : "false",
                     telemetry.exporter_lines_valid ? "true" : "false",
                     simd_json.c_str(), stream_json.c_str());
        std::fclose(out);
        std::cout << "report:              " << report_path << '\n';
    } else {
        std::cerr << "warning: could not write " << report_path << '\n';
    }
    return overhead_percent;
}

/// One span of the scalar-vs-SIMD A/B: the same workload timed with the
/// vector path forced off, then on, plus an output-parity verdict.
struct SimdSpanResult {
    const char* name = "";
    double scalar_us = 0.0;
    double simd_us = 0.0;
    bool parity = false;
};

/// Best-of-rounds mean microseconds per call of `fn` (best round rather
/// than mean-of-rounds, for the same noise-rejection reason as the obs
/// overhead comparison).
template <typename Fn>
double best_round_us(Fn&& fn, int rounds, int iters) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const std::chrono::duration<double, std::micro> elapsed =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, elapsed.count() / iters);
    }
    return best;
}

/// Elementwise closeness for the tolerance-gated spans (reductions and
/// amplitude/ratio kernels may reassociate; see src/simd/kernels.hpp).
bool all_near(const std::vector<double>& a, const std::vector<double>& b,
              double rel, double abs_floor) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double tol =
            abs_floor + rel * std::max(std::abs(a[i]), std::abs(b[i]));
        if (!(std::abs(a[i] - b[i]) <= tol)) {
            return false;
        }
    }
    return true;
}

/// Runs `work` (returning a vector<double> fingerprint of its output)
/// under the scalar path, then under the active vector path, and records
/// timings + parity.
template <typename Work>
SimdSpanResult run_simd_span(const char* name, Work&& work, int iters,
                             bool exact_parity) {
    constexpr int kRounds = 3;
    SimdSpanResult span;
    span.name = name;

    simd::set_enabled(false);
    std::vector<double> scalar_out = work();  // warmup + reference output
    span.scalar_us = best_round_us([&] { work(); }, kRounds, iters);

    simd::set_enabled(true);
    const std::vector<double> simd_out = work();
    span.simd_us = best_round_us([&] { work(); }, kRounds, iters);

    span.parity = exact_parity ? scalar_out == simd_out
                               : all_near(scalar_out, simd_out, 1e-6, 1e-9);
    return span;
}

/// Scalar-vs-SIMD A/B over the five vectorized spans of the pipeline.
/// Each span runs the *public* API (not the raw kernels), so the measured
/// speedup includes every layer a real run goes through. When the build's
/// vector path is unavailable (scalar-only ISA or -DWIMI_SIMD=off), both
/// arms run the scalar code and speedups sit at ~1.
std::vector<SimdSpanResult> run_simd_ab() {
    const bool was_enabled = simd::enabled();
    std::vector<SimdSpanResult> spans;

    // Span 1: wavelet-correlation denoiser (dominates amplitude cleaning).
    {
        Rng rng(21);
        std::vector<double> series(1024);
        for (double& v : series) {
            v = 5.0 + rng.gaussian(0.0, 0.1);
        }
        if (rng.next_u64() % 17 == 0) {
            series[500] += 3.0;  // an impulse so the denoiser iterates
        }
        spans.push_back(run_simd_span(
            "wavelet_denoise",
            [&] { return dsp::wavelet_correlation_denoise(series); }, 20,
            /*exact_parity=*/false));
    }

    // Span 2: classical filters — sliding median + zero-phase Butterworth
    // (biquad cascade). Both vector paths are bit-exact by construction.
    {
        Rng rng(22);
        std::vector<double> series(4096);
        for (double& v : series) {
            v = std::sin(0.01 * static_cast<double>(series.size())) +
                rng.gaussian(0.0, 0.2);
        }
        const dsp::ButterworthLowPass lowpass(4, 10.0, 100.0);
        spans.push_back(run_simd_span(
            "filters",
            [&] {
                auto out = dsp::median_filter(series, 7);
                const auto smoothed = lowpass.filtfilt(series);
                out.insert(out.end(), smoothed.begin(), smoothed.end());
                return out;
            },
            20, /*exact_parity=*/true));
    }

    // Span 3: amplitude-ratio cleaning over a full capture's subcarriers.
    // Fresh SoA per arm so each path also pays (and caches) its own
    // amplitude-plane conversion.
    {
        const auto series = lab_scenario().capture_reference(31, 200);
        spans.push_back(run_simd_span(
            "amplitude_ratio",
            [&] {
                const csi::CsiSoa soa(series);
                std::vector<double> fingerprint;
                for (std::size_t k = 0; k < soa.subcarrier_count(); ++k) {
                    const auto ratio =
                        core::denoised_amplitude_ratio(soa, {0, 1}, k, {});
                    fingerprint.insert(fingerprint.end(), ratio.begin(),
                                       ratio.end());
                }
                return fingerprint;
            },
            3, /*exact_parity=*/false));
    }

    // Span 4: the full material-feature extraction (complex ratios,
    // masking, wavelet cleaning, wrap recovery).
    {
        const auto m =
            lab_scenario().capture_measurement(rf::Liquid::kPepsi, 77);
        const std::vector<core::AntennaPair> pairs = {{0, 1}, {1, 2}, {0, 2}};
        const std::vector<std::size_t> subcarriers = {5, 12, 22, 27};
        spans.push_back(run_simd_span(
            "feature_extract",
            [&] {
                return core::extract_feature_vector(m.baseline, m.target,
                                                    pairs, subcarriers, {});
            },
            10, /*exact_parity=*/false));
    }

    // Span 5: SVM decision over RBF kernel rows. Train once (outside the
    // A/B), then compare batch decision values — bit-exact by design
    // (column kernels accumulate per row in index order).
    {
        Rng rng(13);
        ml::Dataset data(8);
        for (int label = 0; label < 10; ++label) {
            for (int i = 0; i < 20; ++i) {
                std::vector<double> x(8);
                for (double& v : x) {
                    v = rng.gaussian(static_cast<double>(label), 0.3);
                }
                data.add(x, label);
            }
        }
        ml::MulticlassSvm svm;
        svm.train(data);
        std::vector<std::vector<double>> probes(256);
        for (auto& x : probes) {
            x.resize(8);
            for (double& v : x) {
                v = rng.gaussian(4.5, 3.0);
            }
        }
        spans.push_back(run_simd_span(
            "svm_decision",
            [&] {
                std::vector<double> predictions;
                predictions.reserve(probes.size());
                for (const auto& x : probes) {
                    predictions.push_back(
                        static_cast<double>(svm.predict(x)));
                }
                return predictions;
            },
            10, /*exact_parity=*/true));
    }

    simd::set_enabled(was_enabled);

    std::cout << "\n--- SIMD A/B (scalar vs " << simd::active_isa()
              << ", " << simd::double_lanes() << " double lanes) ---\n"
              << "span              scalar_us    simd_us  speedup  parity\n";
    for (const SimdSpanResult& span : spans) {
        std::printf("%-16s  %9.1f  %9.1f  %6.2fx  %s\n", span.name,
                    span.scalar_us, span.simd_us,
                    span.scalar_us / span.simd_us,
                    span.parity ? "ok" : "MISMATCH");
    }
    return spans;
}

/// JSON fragment `"simd":{...}` for the BENCH_pipeline.json report.
std::string simd_ab_json(const std::vector<SimdSpanResult>& spans) {
    std::string json = std::string("{\"isa\":\"") + simd::effective_isa() +
                       "\",\"double_lanes\":" +
                       std::to_string(simd::double_lanes()) + ",\"spans\":{";
    char buffer[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SimdSpanResult& span = spans[i];
        std::snprintf(buffer, sizeof(buffer),
                      "%s\"%s\":{\"scalar_us\":%.3f,\"simd_us\":%.3f,"
                      "\"speedup\":%.4f,\"parity\":%s}",
                      i == 0 ? "" : ",", span.name, span.scalar_us,
                      span.simd_us, span.scalar_us / span.simd_us,
                      span.parity ? "true" : "false");
        json += buffer;
    }
    json += "}}";
    return json;
}

/// Streaming-vs-batch identification phase (DESIGN.md §13): the same
/// window/hop schedule executed by the StreamingPipeline (cached
/// baseline SoA, recycled window buffer) and by naive per-window batch
/// identify (Wimi::features re-transposes the baseline every window).
/// The timing columns are machine-dependent and ignored by the rules;
/// the two parity booleans — full-window bit-identity and per-window
/// bit-identity against batch extraction on the materialized subseries
/// — are gated at zero tolerance by pipeline_perf.json.
struct StreamBenchResult {
    std::size_t frames = 0;
    std::size_t window = 0;
    std::size_t hop = 0;
    std::uint64_t windows = 0;
    double stream_frames_per_s = 0.0;
    double batch_frames_per_s = 0.0;
    bool full_window_parity = false;
    bool sliding_window_parity = false;
};

StreamBenchResult run_stream_vs_batch() {
    StreamBenchResult result;
    result.frames = 2048;
    result.window = 64;
    result.hop = 16;

    const auto& scenario = lab_scenario();
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(5));
    Rng rng(11);
    for (const rf::Liquid liquid :
         {rf::Liquid::kPureWater, rf::Liquid::kMilk, rf::Liquid::kHoney}) {
        for (int rep = 0; rep < 6; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            wimi.enroll(rf::liquid_name(liquid), m.baseline, m.target);
        }
    }
    wimi.train();
    const auto unknown =
        scenario.capture_measurement(rf::Liquid::kMilk, 999);

    // Full-window parity: window == trace length, hop 0 — one window,
    // bit-identical features and the same verdict as batch identify.
    {
        stream::StreamConfig config;
        config.window = unknown.target.packet_count();
        config.hop = 0;
        stream::StreamingPipeline pipeline(
            config, core::make_window_extractor(wimi, unknown.baseline),
            wimi.model());
        std::optional<stream::WindowResult> window;
        for (const csi::CsiFrame& frame : unknown.target.frames) {
            if (auto emitted = pipeline.push(frame)) {
                window = std::move(emitted);
            }
        }
        const auto batch = wimi.identify(unknown.baseline, unknown.target);
        result.full_window_parity =
            window.has_value() &&
            window->features ==
                wimi.features(unknown.baseline, unknown.target) &&
            window->raw_label == batch.material_id;
    }

    // A long stream: the capture's frames cycled out to `frames` with
    // monotonic timestamps, like a monitor sitting on one material.
    csi::CsiSeries long_stream;
    long_stream.frames.reserve(result.frames);
    for (std::size_t i = 0; i < result.frames; ++i) {
        csi::CsiFrame frame =
            unknown.target.frames[i % unknown.target.packet_count()];
        frame.timestamp_s = 0.01 * static_cast<double>(i);
        long_stream.frames.push_back(std::move(frame));
    }

    stream::StreamConfig config;
    config.window = result.window;
    config.hop = result.hop;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, unknown.baseline),
        wimi.model());

    // Untimed verification pass: every emitted window bit-identical to
    // batch extraction over the materialized subseries.
    result.sliding_window_parity = true;
    for (const csi::CsiFrame& frame : long_stream.frames) {
        if (auto emitted = pipeline.push(frame)) {
            csi::CsiSeries sub;
            sub.frames.assign(
                long_stream.frames.begin() +
                    static_cast<std::ptrdiff_t>(emitted->first_frame),
                long_stream.frames.begin() +
                    static_cast<std::ptrdiff_t>(emitted->first_frame +
                                                emitted->frame_count));
            if (emitted->features !=
                wimi.features(unknown.baseline, sub)) {
                result.sliding_window_parity = false;
            }
        }
    }
    result.windows = pipeline.windows_emitted();

    // Timed arms, best of rounds (same noise rejection as the other
    // comparisons). Streaming: push every frame through the pipeline.
    constexpr int kRounds = 3;
    double stream_best_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < kRounds; ++round) {
        pipeline.reset();
        const auto t0 = std::chrono::steady_clock::now();
        for (const csi::CsiFrame& frame : long_stream.frames) {
            benchmark::DoNotOptimize(pipeline.push(frame));
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        stream_best_s = std::min(stream_best_s, elapsed.count());
    }
    result.stream_frames_per_s =
        static_cast<double>(result.frames) / stream_best_s;

    // Batch: the identical schedule, each window materialized fresh and
    // pushed through the whole-series entry points.
    double batch_best_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < kRounds; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t start = 0;
             start + result.window <= result.frames;
             start += result.hop) {
            csi::CsiSeries sub;
            sub.frames.assign(
                long_stream.frames.begin() +
                    static_cast<std::ptrdiff_t>(start),
                long_stream.frames.begin() +
                    static_cast<std::ptrdiff_t>(start + result.window));
            const auto features = wimi.features(unknown.baseline, sub);
            benchmark::DoNotOptimize(wimi.model().classify(features));
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        batch_best_s = std::min(batch_best_s, elapsed.count());
    }
    result.batch_frames_per_s =
        static_cast<double>(result.frames) / batch_best_s;

    std::cout << "\n--- streaming vs batch (window " << result.window
              << ", hop " << result.hop << ", " << result.frames
              << " frames, " << result.windows << " windows) ---\n"
              << "stream frames/s:   " << result.stream_frames_per_s << '\n'
              << "batch frames/s:    " << result.batch_frames_per_s << '\n'
              << "stream/batch:      "
              << result.stream_frames_per_s / result.batch_frames_per_s
              << "x\n"
              << "full-window parity:    "
              << (result.full_window_parity ? "ok" : "MISMATCH") << '\n'
              << "sliding-window parity: "
              << (result.sliding_window_parity ? "ok" : "MISMATCH")
              << '\n';
    return result;
}

/// JSON fragment `"stream":{...}` for the BENCH_pipeline.json report.
std::string stream_bench_json(const StreamBenchResult& result) {
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"frames\":%zu,\"window\":%zu,\"hop\":%zu,\"windows\":%llu,"
        "\"stream_frames_per_s\":%.1f,\"batch_frames_per_s\":%.1f,"
        "\"stream_vs_batch\":%.4f,\"full_window_parity\":%s,"
        "\"sliding_window_parity\":%s}",
        result.frames, result.window, result.hop,
        static_cast<unsigned long long>(result.windows),
        result.stream_frames_per_s, result.batch_frames_per_s,
        result.stream_frames_per_s / result.batch_frames_per_s,
        result.full_window_parity ? "true" : "false",
        result.sliding_window_parity ? "true" : "false");
    return buffer;
}

/// True when both experiment results are bit-identical (exact doubles,
/// exact confusion counts) — the exec determinism contract.
bool results_identical(const sim::ExperimentResult& a,
                       const sim::ExperimentResult& b) {
    if (a.accuracy != b.accuracy || a.mean_recall != b.mean_recall ||
        a.confusion.labels().size() != b.confusion.labels().size()) {
        return false;
    }
    if (!std::equal(a.confusion.labels().begin(),
                    a.confusion.labels().end(),
                    b.confusion.labels().begin())) {
        return false;
    }
    for (const int truth : a.confusion.labels()) {
        for (const int predicted : a.confusion.labels()) {
            if (a.confusion.count(truth, predicted) !=
                b.confusion.count(truth, predicted)) {
                return false;
            }
        }
    }
    return true;
}

/// Thread-scaling sweep over the exec layer's pipeline seams: dataset
/// build (capture fan-out) + cross-validated evaluation (fold fan-out)
/// at 1/2/4/8 threads, clipped to the machine: widths wider than
/// hardware_concurrency only measure oversubscription, so they are
/// skipped and listed in the report instead. Every width's result is
/// checked bit-identical to the serial run.
void run_parallel_scaling(const char* report_path) {
    sim::ExperimentConfig config;
    config.scenario.environment = rf::Environment::kLab;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kPepsi,     rf::Liquid::kHoney,
                      rf::Liquid::kVinegar,   rf::Liquid::kOil};
    config.repetitions = 8;
    config.cv_folds = 4;
    config.seed = 42;

    std::vector<std::string> class_names;
    class_names.reserve(config.liquids.size());
    for (const rf::Liquid liquid : config.liquids) {
        class_names.emplace_back(rf::liquid_name(liquid));
    }

    struct Sample {
        std::size_t threads = 0;
        double build_s = 0.0;
        double evaluate_s = 0.0;
    };
    const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        return elapsed.count();
    };

    // Widths wider than the machine cannot demonstrate scaling — they
    // only oversubscribe the cores and report speedups < 1 that read as
    // regressions. Width 1 (the serial reference) always runs; wider
    // widths run only up to the actual core count and the skipped ones
    // are recorded in the report.
    const std::size_t hw = exec::hardware_threads();
    std::vector<std::size_t> widths;
    std::vector<std::size_t> skipped_widths;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        if (threads == 1 || threads <= hw) {
            widths.push_back(threads);
        } else {
            skipped_widths.push_back(threads);
        }
    }
    if (!skipped_widths.empty()) {
        std::cout << "\nnote: skipping thread widths wider than the "
                  << hw << "-thread machine:";
        for (const std::size_t threads : skipped_widths) {
            std::cout << ' ' << threads;
        }
        std::cout << '\n';
    }

    std::vector<Sample> samples;
    std::vector<sim::ExperimentResult> results;
    for (const std::size_t threads : widths) {
        exec::set_thread_count(threads);
        exec::warm_pool();  // spawn+park workers outside the timed region
        Sample sample;
        sample.threads = threads;
        // Calibration is serial and identical across widths; keep it
        // outside the timed region.
        const core::Wimi wimi = sim::make_calibrated_wimi(config);

        auto t0 = std::chrono::steady_clock::now();
        const auto data = sim::build_feature_dataset(config, wimi);
        sample.build_s = seconds_since(t0);

        t0 = std::chrono::steady_clock::now();
        results.push_back(sim::evaluate_dataset(data, config, class_names));
        sample.evaluate_s = seconds_since(t0);
        samples.push_back(sample);
    }
    exec::set_thread_count(0);

    bool bit_identical = true;
    for (const sim::ExperimentResult& result : results) {
        bit_identical =
            bit_identical && results_identical(results.front(), result);
    }
    const double serial_total =
        samples.front().build_s + samples.front().evaluate_s;

    std::cout << "\n--- thread scaling (simulate -> train -> evaluate) ---\n"
              << "hardware threads:  " << exec::hardware_threads() << '\n'
              << "bit identical:     " << (bit_identical ? "yes" : "NO")
              << '\n'
              << "threads  build_s  evaluate_s  total_s  speedup\n";
    for (const Sample& sample : samples) {
        const double total = sample.build_s + sample.evaluate_s;
        std::printf("%7zu  %7.3f  %10.3f  %7.3f  %6.2fx\n", sample.threads,
                    sample.build_s, sample.evaluate_s, total,
                    serial_total / total);
    }

    std::FILE* out = std::fopen(report_path, "w");
    if (out == nullptr) {
        std::cerr << "warning: could not write " << report_path << '\n';
        return;
    }
    std::fprintf(out,
                 "{\"schema\":\"wimi.bench_parallel.v1\","
                 "\"hardware_threads\":%zu,"
                 "\"oversubscribed_widths_skipped\":%s,"
                 "\"skipped_widths\":[",
                 hw, skipped_widths.empty() ? "false" : "true");
    for (std::size_t i = 0; i < skipped_widths.size(); ++i) {
        std::fprintf(out, "%s%zu", i == 0 ? "" : ",", skipped_widths[i]);
    }
    std::fprintf(out,
                 "],\"bit_identical\":%s,"
                 "\"accuracy\":%.17g,"
                 "\"widths\":[",
                 bit_identical ? "true" : "false",
                 results.front().accuracy);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& sample = samples[i];
        const double total = sample.build_s + sample.evaluate_s;
        std::fprintf(out,
                     "%s{\"threads\":%zu,"
                     "\"build_dataset_s\":%.6f,"
                     "\"evaluate_s\":%.6f,"
                     "\"total_s\":%.6f,"
                     "\"speedup\":%.4f}",
                     i == 0 ? "" : ",", sample.threads, sample.build_s,
                     sample.evaluate_s, total, serial_total / total);
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
    std::cout << "report:            " << report_path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    bench::RunScope run("bench_pipeline_perf");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const auto simd_spans = run_simd_ab();
    const StreamBenchResult stream_bench = run_stream_vs_batch();
    const double overhead = run_obs_overhead_comparison(
        "BENCH_pipeline.json", simd_ab_json(simd_spans),
        stream_bench_json(stream_bench));
    run.context.note("obs_overhead_percent", overhead);
    run_parallel_scaling("BENCH_parallel.json");
    return 0;
}
