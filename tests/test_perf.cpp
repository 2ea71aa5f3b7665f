// Timing gates on ratios of two arms measured in one run, so each bound
// holds on any machine that is not overloaded. ctest runs them one at a
// time (label `perf`); each prints its reading. Sanitizer builds skip the
// timing gates, and builds with observability compiled out the obs gates.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/amplitude_denoising.hpp"
#include "core/material_feature.hpp"
#include "core/wimi.hpp"
#include "csi/soa.hpp"
#include "dsp/filters.hpp"
#include "dsp/wavelet_denoise.hpp"
#include "exec/parallel.hpp"
#include "inference_workload.hpp"
#include "ml/svm.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/model_io.hpp"
#include "simd/simd.hpp"

namespace wimi {
namespace {

using Clock = std::chrono::steady_clock;

#if defined(WIMI_SANITIZED)
#define WIMI_SKIP_TIMING() GTEST_SKIP() << "sanitizer build: no timing gates"
#else
#define WIMI_SKIP_TIMING() static_cast<void>(0)
#endif
#if defined(WIMI_OBS_DISABLED)
#define WIMI_SKIP_WITHOUT_OBS() GTEST_SKIP() << "observability compiled out"
#else
#define WIMI_SKIP_WITHOUT_OBS() static_cast<void>(0)
#endif

double us_since(Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

/// Fewest microseconds `run` took over 3 calls; the first warms caches.
double best_of_3_us(const std::function<void()>& run) {
    double best = 1e300;
    for (int round = 0; round < 3; ++round) {
        const auto start = Clock::now();
        run();
        best = std::min(best, us_since(start));
    }
    return best;
}

/// Observability's share of an operation, taken as perfbench's
/// obs_overhead_share takes it: `pass(on)` sets up, then times a fixed
/// batch of work with the obs layer under test on or off and returns its
/// microseconds. Each round runs both arms, the first arm alternating so
/// drift cancels; the reading is the median of the on passes over the
/// median of the off passes, minus one.
double obs_overhead_share(const std::function<double(bool)>& pass,
                          int rounds) {
    std::vector<double> us[2];
    for (int round = 0; round < rounds; ++round) {
        for (const bool on : {round % 2 == 0, round % 2 != 0}) {
            us[on].push_back(pass(on));
        }
    }
    for (std::vector<double>& arm : us) {
        std::sort(arm.begin(), arm.end());
    }
    return us[1][rounds / 2] / us[0][rounds / 2] - 1.0;
}

std::string temp_file(const std::string& stem) {
    return (std::filesystem::temp_directory_path() /
            (stem + "." + std::to_string(::getpid())))
        .string();
}

/// Routes the structured logger, live at info, to a scratch file while in
/// scope: both obs budgets cover log emission too.
struct LogToFile {
    std::string path = temp_file("wimi_perf_log.jsonl");
    LogToFile() {
        obs::Logger::instance().set_path(path);
        obs::Logger::instance().set_level(obs::LogLevel::kInfo);
    }
    ~LogToFile() {
        obs::Logger::instance().set_path("");
        std::filesystem::remove(path);
    }
};

TEST(Perf, IdentifyObsOverheadWithinBudget) {
    WIMI_SKIP_TIMING();
    WIMI_SKIP_WITHOUT_OBS();
    const sim::Scenario scenario{sim::ScenarioConfig{}};  // the lab
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(5));
    Rng rng(11);
    const rf::Liquid liquids[] = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                                  rf::Liquid::kHoney};
    std::vector<sim::MeasurementPair> captures;
    for (int i = 0; i < 18; ++i) {
        const auto& m = captures.emplace_back(
            scenario.capture_measurement(liquids[i / 6], rng.next_u64()));
        wimi.enroll(rf::liquid_name(liquids[i / 6]), m.baseline, m.target);
    }
    wimi.train();

    // Each pass identifies the 18 enrolled captures again.
    const LogToFile log;
    const auto pass = [&](bool on) {
        obs::set_enabled(on);
        const auto start = Clock::now();
        for (const sim::MeasurementPair& m : captures) {
            wimi.identify(m.baseline, m.target);
        }
        return us_since(start);
    };
    pass(true);
    const double percent = 100.0 * obs_overhead_share(pass, 300);
    obs::set_enabled(true);
    std::printf("identify obs overhead: %.2f%% (budget 5%%)\n", percent);
    EXPECT_LE(percent, 5.0);
}

TEST(Perf, ServeObsOverheadWithinBudget) {
    WIMI_SKIP_TIMING();
    WIMI_SKIP_WITHOUT_OBS();
    sim::ExperimentConfig config = testutil::serving_experiment();
    config.repetitions = 4;
    const std::string model_path = temp_file("wimi_perf_model.wmdl");
    serve::save_model_file(model_path, sim::train_experiment_model(config));
    const std::vector<double> features(
        serve::InferenceEngine::load(model_path).model().feature_width(), 0.25);

    // What the request-scoped layer adds to a request; spans, metrics and
    // logs stay on in both arms. On: the flight ring at 4096 records and
    // every request traced (v2 records). Off: no flight ring, untraced (v1)
    // requests. One serial client and no batch stall keep scheduling
    // jitter small; each short pass opens its own connection, so neither
    // arm keeps one thread placement for the whole run.
    std::unique_ptr<serve::Daemon> daemons[2];
    for (const std::size_t on : {0, 1}) {
        serve::DaemonOptions options;
        options.socket_path = temp_file("wimi_perf" + std::to_string(on) + ".sock");
        options.model_path = model_path;
        options.flight.capacity = on * 4096;
        daemons[on] = std::make_unique<serve::Daemon>(options);
        daemons[on]->start();
    }
    const LogToFile log;
    std::size_t failed = 0;
    const auto pass = [&](bool on) {
        serve::ServeClient client(daemons[on]->socket_path());
        failed += client.ping().ok() ? 0 : 1;
        const auto start = Clock::now();
        for (int i = 0; i < 10; ++i) {
            obs::ObsContext ctx;
            if (on) {
                ctx.trace_id = obs::next_trace_id();
                ctx.span_id = obs::next_span_id();
            }
            const obs::ScopedObsContext scope(ctx);
            failed += client.predict_features(features).ok() ? 0 : 1;
        }
        return us_since(start);
    };
    const double percent = 100.0 * obs_overhead_share(pass, 800);
    for (const auto& daemon : daemons) {
        daemon->stop();
    }
    std::filesystem::remove(model_path);
    std::printf("serve obs overhead: %.2f%% (budget 5%%)\n", percent);
    EXPECT_LE(percent, 5.0);
    EXPECT_EQ(failed, 0u);
}

/// One vectorized span of the pipeline, called through its public API;
/// `work` returns the span's output.
struct SimdSpan {
    const char* name;
    std::function<std::vector<double>()> work;
    int calls;   ///< per timed round
    bool exact;  ///< bit-exact, else within rel 1e-6 / abs 1e-9
};

std::vector<double> gaussian_series(std::uint64_t seed, std::size_t n,
                                    double mean, double sigma) {
    Rng rng(seed);
    std::vector<double> series(n);
    for (double& v : series) {
        v = rng.gaussian(mean, sigma);
    }
    return series;
}

std::vector<SimdSpan> simd_spans() {
    const sim::Scenario scenario{sim::ScenarioConfig{}};
    const csi::CsiSeries reference = scenario.capture_reference(31, 200);
    const auto m = scenario.capture_measurement(rf::Liquid::kPepsi, 77);
    // An RBF SVM over 10 classes of 20 rows, probed at its training rows.
    ml::Dataset data(8);
    for (int i = 0; i < 200; ++i) {
        data.add(gaussian_series(1000 + i, 8, i / 20, 0.3), i / 20);
    }
    ml::MulticlassSvm svm;
    svm.train(data);
    return {
        {"wavelet_denoise",
         [series = gaussian_series(21, 1024, 5.0, 0.1)] {
             return dsp::wavelet_correlation_denoise(series);
         },
         20, false},
        {"filters",
         [series = gaussian_series(22, 4096, 0.0, 0.2)] {
             auto out = dsp::median_filter(series, 7);
             const auto smoothed =
                 dsp::ButterworthLowPass(4, 10.0, 100.0).filtfilt(series);
             out.insert(out.end(), smoothed.begin(), smoothed.end());
             return out;
         },
         20, true},
        // A fresh SoA per call: each path pays its own plane conversion.
        {"amplitude_ratio",
         [=] {
             const csi::CsiSoa soa(reference);
             std::vector<double> out;
             for (std::size_t k = 0; k < soa.subcarrier_count(); ++k) {
                 const auto ratio =
                     core::denoised_amplitude_ratio(soa, {0, 1}, k, {});
                 out.insert(out.end(), ratio.begin(), ratio.end());
             }
             return out;
         },
         3, false},
        {"feature_extract",
         [=] {
             return core::extract_feature_vector(
                 m.baseline, m.target, {{0, 1}, {1, 2}, {0, 2}},
                 {5, 12, 22, 27}, {});
         },
         10, false},
        {"svm_decision",
         [=] {
             std::vector<double> out;
             for (std::size_t i = 0; i < data.size(); ++i) {
                 out.push_back(svm.predict(data.features(i)));
             }
             return out;
         },
         10, true},
    };
}

bool matches(const std::vector<double>& a, const std::vector<double>& b,
             bool exact) {
    if (exact || a.size() != b.size()) {
        return a == b;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(std::abs(a[i] - b[i]) <=
              1e-9 + 1e-6 * std::max(std::abs(a[i]), std::abs(b[i])))) {
            return false;
        }
    }
    return true;
}

TEST(Perf, SimdSpansMatchTheScalarPath) {
    for (const SimdSpan& span : simd_spans()) {
        simd::set_enabled(false);
        const std::vector<double> scalar = span.work();
        simd::set_enabled(true);
        const bool ok = matches(scalar, span.work(), span.exact);
        std::printf("%s parity (%s): %s\n", span.name, simd::effective_isa(),
                    ok ? "ok" : "MISMATCH");
        EXPECT_TRUE(ok) << span.name;
    }
}

TEST(Perf, SimdSpeedupFloorOnWideVectors) {
    WIMI_SKIP_TIMING();
    simd::set_enabled(true);
    const std::string isa = simd::effective_isa();
    if (isa != "avx2" && isa != "avx512") {
        GTEST_SKIP() << "speedup floor applies to avx2 or wider; isa=" << isa;
    }
    int wins = 0;
    for (const SimdSpan& span : simd_spans()) {
        const auto timed = [&](bool vector) {
            simd::set_enabled(vector);
            return best_of_3_us([&] {
                for (int i = 0; i < span.calls; ++i) {
                    span.work();
                }
            });
        };
        const double speedup = timed(false) / timed(true);
        std::printf("%s speedup (%s): %.2fx\n", span.name, isa.c_str(), speedup);
        wins += speedup >= 2.0 ? 1 : 0;
    }
    std::printf("%d of 5 spans at >= 2x (floor 3)\n", wins);
    EXPECT_GE(wins, 3);
}

TEST(Perf, InferenceBatchScalesToEightThreads) {
    WIMI_SKIP_TIMING();
    const std::size_t hw = exec::hardware_threads();
    if (hw < 8) {
        GTEST_SKIP() << "speedup floor needs 8 hardware threads; have " << hw;
    }
    const sim::ExperimentConfig config = testutil::serving_experiment();
    const serve::InferenceEngine engine(sim::train_experiment_model(config));
    const testutil::ServingWorkload w = testutil::serving_workload(config);
    const double serial = best_of_3_us([&] {
        for (const sim::MeasurementPair& m : w.captures) {
            engine.predict(m.baseline, m.target);
        }
    });
    const double batched = best_of_3_us(
        [&] { engine.predict_batch(w.observations, {.threads = 8}); });
    std::printf("batch speedup at 8 threads: %.2fx (floor 3x)\n",
                serial / batched);
    EXPECT_GE(serial / batched, 3.0);
}

}  // namespace
}  // namespace wimi
