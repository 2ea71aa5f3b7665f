// Engineering benchmark for the serving layer ("train once, infer many"):
// trains an experiment model, persists it as wimi.model.v1, reloads it
// through serve::InferenceEngine, and measures single-observation predict
// throughput against predict_batch at 1/2/4/8 threads.
//
// Every batched width is checked bit-identical to the serial loop (the
// exec determinism contract), and the whole run is written to
// BENCH_infer.json. The machine-independent subset (accuracy, identity
// flag, workload shape) is gated in CI against
// bench/baselines/inference_metrics.json via wimi_regress; the batched
// speedup floor (>= 3x at 8 threads) is only meaningful on machines with
// at least 8 hardware threads, so CI checks it conditionally — the same
// precedent as bench_pipeline_perf's thread-scaling sweep.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "rf/material.hpp"
#include "serve/inference.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace wimi;

constexpr const char* kModelPath = "BENCH_infer_model.wmdl";
constexpr const char* kReportPath = "BENCH_infer.json";

sim::ExperimentConfig bench_config() {
    sim::ExperimentConfig config;
    config.scenario.environment = rf::Environment::kLab;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kPepsi,     rf::Liquid::kHoney,
                      rf::Liquid::kVinegar,   rf::Liquid::kOil};
    config.repetitions = 10;
    config.seed = 7;
    return config;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count();
}

struct Workload {
    std::vector<sim::MeasurementPair> measurements;
    std::vector<int> truth;
    std::vector<serve::Observation> observations;
};

/// Unseen evaluation captures: 20 per liquid from a seed disjoint from
/// the training schedule.
Workload build_workload(const sim::ExperimentConfig& config) {
    const sim::Scenario scenario(config.scenario);
    Rng rng(config.seed + 1);
    Workload w;
    constexpr int kEvalReps = 20;
    for (std::size_t liquid = 0; liquid < config.liquids.size(); ++liquid) {
        for (int rep = 0; rep < kEvalReps; ++rep) {
            w.measurements.push_back(scenario.capture_measurement(
                config.liquids[liquid], rng.next_u64()));
            w.truth.push_back(static_cast<int>(liquid));
        }
    }
    w.observations.reserve(w.measurements.size());
    for (const sim::MeasurementPair& m : w.measurements) {
        w.observations.push_back({&m.baseline, &m.target});
    }
    return w;
}

}  // namespace

int main() {
    obs::set_enabled(true);
    bench::RunScope run("bench_inference");
    bench::print_header("serving", "inference engine throughput",
                        "n/a (engineering benchmark, not a paper figure)");

    const sim::ExperimentConfig config = bench_config();
    const core::Model model = sim::train_experiment_model(config);
    serve::save_model_file(kModelPath, model);

    auto t0 = std::chrono::steady_clock::now();
    const serve::InferenceEngine engine = serve::InferenceEngine::load(kModelPath);
    const double load_s = seconds_since(t0);
    std::cout << "model:          " << kModelPath << " ("
              << engine.info().file_bytes << " bytes, digest "
              << engine.digest() << ")\n"
              << "load time:      " << load_s * 1e6 << " us\n";

    const Workload workload = build_workload(config);
    const std::size_t n = workload.observations.size();

    // Serial reference: one predict() call per observation.
    constexpr int kRounds = 3;
    std::vector<serve::Prediction> serial(n);
    double serial_s = 1e300;
    for (int round = 0; round < kRounds; ++round) {
        t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            serial[i] = engine.predict(workload.measurements[i].baseline,
                                       workload.measurements[i].target);
        }
        serial_s = std::min(serial_s, seconds_since(t0));
    }

    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (serial[i].material_id == workload.truth[i]) {
            ++correct;
        }
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(n);

    // Batched widths, clipped to the machine: oversubscribed widths only
    // measure contention, so they are skipped and listed in the report
    // (bench_pipeline_perf precedent). Width 1 always runs.
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

    struct Sample {
        std::size_t threads = 0;
        double best_s = 1e300;
        bool bit_identical = true;
    };
    std::vector<Sample> samples;
    bool all_identical = true;
    for (const std::size_t threads : widths) {
        Sample sample;
        sample.threads = threads;
        for (int round = 0; round < kRounds; ++round) {
            t0 = std::chrono::steady_clock::now();
            const auto batched = engine.predict_batch(
                workload.observations, {.threads = threads});
            sample.best_s = std::min(sample.best_s, seconds_since(t0));
            for (std::size_t i = 0; i < n; ++i) {
                sample.bit_identical =
                    sample.bit_identical &&
                    batched[i].material_id == serial[i].material_id;
            }
        }
        all_identical = all_identical && sample.bit_identical;
        samples.push_back(sample);
    }

    std::cout << "\nhardware threads: " << hw << '\n'
              << "observations:     " << n << '\n'
              << "accuracy:         " << accuracy << '\n'
              << "bit identical:    " << (all_identical ? "yes" : "NO")
              << '\n'
              << "serial:           " << static_cast<double>(n) / serial_s
              << " predict/s\n"
              << "threads  predict/s  speedup_vs_serial\n";
    for (const Sample& sample : samples) {
        std::printf("%7zu  %9.0f  %17.2fx\n", sample.threads,
                    static_cast<double>(n) / sample.best_s,
                    serial_s / sample.best_s);
    }
    if (!skipped_widths.empty()) {
        std::cout << "skipped oversubscribed widths:";
        for (const std::size_t threads : skipped_widths) {
            std::cout << ' ' << threads;
        }
        std::cout << '\n';
    }

    run.context.note("accuracy", accuracy);
    run.context.note("model_digest", engine.digest());

    std::FILE* out = std::fopen(kReportPath, "w");
    if (out == nullptr) {
        std::cerr << "warning: could not write " << kReportPath << '\n';
        return 1;
    }
    std::fprintf(out,
                 "{\"schema\":\"wimi.bench_infer.v1\","
                 "\"hardware_threads\":%zu,"
                 "\"model_bytes\":%llu,"
                 "\"model_digest\":\"%s\","
                 "\"model_load_s\":%.6f,"
                 "\"infer\":{"
                 "\"accuracy\":%.17g,"
                 "\"batch_matches_serial\":%s,"
                 "\"measurements\":%zu,"
                 "\"classes\":%zu},"
                 "\"serial_predict_per_s\":%.3f,"
                 "\"oversubscribed_widths_skipped\":%s,"
                 "\"skipped_widths\":[",
                 hw,
                 static_cast<unsigned long long>(engine.info().file_bytes),
                 engine.digest().c_str(), load_s, accuracy,
                 all_identical ? "true" : "false", n,
                 model.class_names.size(),
                 static_cast<double>(n) / serial_s,
                 skipped_widths.empty() ? "false" : "true");
    for (std::size_t i = 0; i < skipped_widths.size(); ++i) {
        std::fprintf(out, "%s%zu", i == 0 ? "" : ",", skipped_widths[i]);
    }
    std::fprintf(out, "],\"widths\":[");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& sample = samples[i];
        std::fprintf(out,
                     "%s{\"threads\":%zu,"
                     "\"predict_per_s\":%.3f,"
                     "\"speedup\":%.4f,"
                     "\"bit_identical\":%s}",
                     i == 0 ? "" : ",", sample.threads,
                     static_cast<double>(n) / sample.best_s,
                     serial_s / sample.best_s,
                     sample.bit_identical ? "true" : "false");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
    std::cout << "report:           " << kReportPath << '\n';

    return all_identical ? 0 : 1;
}
