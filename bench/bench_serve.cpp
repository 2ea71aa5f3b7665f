// Engineering benchmark for the wimi_serve daemon: sustained throughput
// and tail latency through the full serving stack — socket transport,
// wire codec, admission queue, coalescing batcher, inference engine.
//
// Three phases against live daemons on real Unix-domain sockets:
//
//   1. burst     — concurrent clients hammer one daemon; measures
//                  sustained request throughput and client-observed
//                  p50/p95/p99 latency, and checks the burst actually
//                  coalesced (max batch > 1, fewer batches than
//                  requests).
//   2. hot-swap  — the same traffic shape with a model swap in the
//                  middle; checks zero failed requests and zero mixed
//                  digests (every answer names exactly one of the two
//                  artifacts, transitioning monotonically per client).
//   3. overload  — a deliberately tiny admission queue under a stalled
//                  batcher; checks shed load is an explicit kOverloaded
//                  answer for every client, never a hang or a dropped
//                  connection — and that the shed requests landed in
//                  the flight recorder with kOverloaded outcomes.
//   4. obs A/B   — the same burst shape against a daemon with the
//                  request-scoped observability plane off (obs
//                  disabled, flight ring capacity 0, untraced clients)
//                  and on (defaults, every client request under a
//                  trace span); reports the p50 delta as
//                  obs_overhead_percent (gated <= 5% absolute) plus
//                  trace-echo and tail-sampler validity booleans.
//
// Results land in BENCH_serve.json. The machine-independent subset
// (workload shape + the validity booleans + the A/B overhead bound) is
// gated in CI against bench/baselines/serve_perf.json via wimi_regress;
// every raw timing is machine-dependent and ignored by the rules.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "rf/material.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/inference.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"

namespace {

using namespace wimi;

constexpr const char* kModelAPath = "BENCH_serve_model_a.wmdl";
constexpr const char* kModelBPath = "BENCH_serve_model_b.wmdl";
constexpr const char* kReportPath = "BENCH_serve.json";

sim::ExperimentConfig bench_config(std::uint64_t seed) {
    sim::ExperimentConfig config;
    config.scenario.environment = rf::Environment::kLab;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kPepsi, rf::Liquid::kHoney};
    config.repetitions = 6;
    config.seed = seed;
    return config;
}

std::string bench_socket(const char* name) {
    return (std::filesystem::temp_directory_path() /
            (std::string("wimi_bench_serve_") + name + ".sock"))
        .string();
}

double percentile(std::vector<double> sorted_us, double q) {
    if (sorted_us.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted_us.size() - 1));
    return sorted_us[rank];
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count();
}

struct BurstResult {
    std::size_t requests = 0;
    std::size_t ok = 0;
    std::size_t overloaded = 0;
    std::size_t other = 0;        ///< any status that is not ok/overloaded
    std::size_t transport_errors = 0;
    std::size_t trace_echoed = 0;  ///< ok answers carrying a trace id
    double wall_s = 0.0;
    std::vector<double> latencies_us;
    /// Digest sequence per client, in request order (ok answers only).
    std::vector<std::vector<std::string>> digests;
};

/// `clients` threads, each its own connection, each sending `per_client`
/// feature-vector predicts back-to-back. With `traced`, every request
/// runs under a fresh client-side ObsContext so the trace context rides
/// the wire (the phase-4 "observability on" traffic shape). The context
/// is installed directly rather than via WIMI_TRACE_SPAN: an
/// instrumented client pays for its own spans with or without wire
/// propagation, so a span here would bill baseline-plane cost to the
/// propagation delta — and would also compile out under
/// WIMI_ENABLE_OBS=OFF, where propagation still works and is still
/// worth measuring.
BurstResult run_burst(const std::string& socket_path, std::size_t clients,
                      std::size_t per_client,
                      const std::vector<double>& features,
                      bool traced = false) {
    BurstResult result;
    result.requests = clients * per_client;
    result.digests.resize(clients);
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::size_t> ok(clients, 0);
    std::vector<std::size_t> overloaded(clients, 0);
    std::vector<std::size_t> other(clients, 0);
    std::vector<std::size_t> errors(clients, 0);
    std::vector<std::size_t> echoed(clients, 0);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                serve::ServeClient client(socket_path);
                for (std::size_t r = 0; r < per_client; ++r) {
                    const auto sent = std::chrono::steady_clock::now();
                    serve::ClientResult answer;
                    if (traced) {
                        obs::ObsContext ctx;
                        ctx.trace_id = obs::next_trace_id();
                        ctx.span_id = obs::next_span_id();
                        const obs::ScopedObsContext scope(ctx);
                        answer = client.predict_features(features);
                    } else {
                        answer = client.predict_features(features);
                    }
                    latencies[c].push_back(seconds_since(sent) * 1e6);
                    if (answer.ok()) {
                        ++ok[c];
                        result.digests[c].push_back(answer.model_digest);
                        if (answer.trace_id != 0) {
                            ++echoed[c];
                        }
                    } else if (answer.status ==
                               serve::wire::Status::kOverloaded) {
                        ++overloaded[c];
                    } else {
                        ++other[c];
                    }
                }
            } catch (const std::exception&) {
                ++errors[c];
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    result.wall_s = seconds_since(t0);
    for (std::size_t c = 0; c < clients; ++c) {
        result.ok += ok[c];
        result.overloaded += overloaded[c];
        result.other += other[c];
        result.transport_errors += errors[c];
        result.trace_echoed += echoed[c];
        result.latencies_us.insert(result.latencies_us.end(),
                                   latencies[c].begin(),
                                   latencies[c].end());
    }
    std::sort(result.latencies_us.begin(), result.latencies_us.end());
    return result;
}

}  // namespace

int main() {
    obs::set_enabled(true);
    bench::RunScope run("bench_serve");
    bench::print_header("serving", "daemon throughput and tail latency",
                        "n/a (engineering benchmark, not a paper figure)");

    serve::save_model_file(
        kModelAPath, sim::train_experiment_model(bench_config(7)));
    serve::save_model_file(
        kModelBPath, sim::train_experiment_model(bench_config(8)));
    const std::string digest_a = serve::model_file_digest(kModelAPath);
    const std::string digest_b = serve::model_file_digest(kModelBPath);
    const std::size_t feature_width =
        serve::InferenceEngine::load(kModelAPath).model().feature_width();
    const std::vector<double> features(feature_width, 0.25);
    std::cout << "models: " << kModelAPath << " (digest " << digest_a
              << "), " << kModelBPath << " (digest " << digest_b << ")\n";

    // ---- Phase 1+2: burst throughput, then hot-swap mid-burst --------
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 40;
    serve::DaemonOptions options;
    options.socket_path = bench_socket("main");
    options.model_path = kModelAPath;
    options.max_queue = 256;
    options.max_batch = 32;
    // A sub-millisecond stall makes coalescing deterministic under
    // scheduler noise without dominating the measured latency.
    options.batch_stall = std::chrono::microseconds(300);
    serve::Daemon daemon(options);
    daemon.start();

    const BurstResult burst = run_burst(daemon.socket_path(), kClients,
                                        kPerClient, features);
    const serve::DaemonStats after_burst = daemon.stats();
    const bool burst_all_ok = burst.ok == burst.requests &&
                              burst.transport_errors == 0;
    const bool coalesced = after_burst.max_batch_size > 1 &&
                           after_burst.batches < after_burst.requests;
    const double throughput =
        static_cast<double>(burst.requests) / burst.wall_s;
    const double p50 = percentile(burst.latencies_us, 0.50);
    const double p95 = percentile(burst.latencies_us, 0.95);
    const double p99 = percentile(burst.latencies_us, 0.99);
    std::cout << "\nburst:    " << burst.requests << " requests over "
              << kClients << " clients\n"
              << "          " << throughput << " req/s, p50 " << p50
              << " us, p95 " << p95 << " us, p99 " << p99 << " us\n"
              << "          max batch " << after_burst.max_batch_size
              << ", " << after_burst.batches << " batches\n";

    // Hot-swap mid-burst: fire the same shape, flip the model once the
    // burst is in full flight.
    std::thread swapper([&daemon, &digest_b] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        std::string error;
        if (!daemon.swap_model(kModelBPath, &error)) {
            std::cerr << "swap failed: " << error << '\n';
        }
        (void)digest_b;
    });
    const BurstResult swap_burst = run_burst(
        daemon.socket_path(), kClients, kPerClient, features);
    swapper.join();
    const std::string serving_after_swap = daemon.model_digest();
    daemon.stop();

    bool swap_zero_failed = swap_burst.ok == swap_burst.requests &&
                            swap_burst.transport_errors == 0;
    bool swap_zero_mixed = true;
    std::size_t answers_on_b = 0;
    for (const std::vector<std::string>& sequence : swap_burst.digests) {
        bool seen_new = false;
        for (const std::string& digest : sequence) {
            if (digest == digest_b) {
                seen_new = true;
                ++answers_on_b;
            } else if (digest != digest_a || seen_new) {
                // Unknown digest, or old model after the new one: a
                // batch mixed engines (or rolled back) somewhere.
                swap_zero_mixed = false;
            }
        }
    }
    const bool swap_final_is_b = serving_after_swap == digest_b;
    std::cout << "hot-swap: " << swap_burst.requests << " requests, "
              << answers_on_b << " answered by the new model\n"
              << "          zero failed: "
              << (swap_zero_failed ? "yes" : "NO")
              << ", zero mixed: " << (swap_zero_mixed ? "yes" : "NO")
              << '\n';

    // ---- Phase 3: overload under a tiny queue ------------------------
    serve::DaemonOptions tiny;
    tiny.socket_path = bench_socket("tiny");
    tiny.model_path = kModelAPath;
    tiny.max_queue = 4;
    tiny.max_batch = 2;
    tiny.batch_stall = std::chrono::milliseconds(5);
    serve::Daemon small_daemon(tiny);
    small_daemon.start();
    const BurstResult flood = run_burst(small_daemon.socket_path(), 16,
                                        5, features);
    small_daemon.stop();
    const serve::DaemonStats flood_stats = small_daemon.stats();
    const bool overload_all_answered =
        flood.ok + flood.overloaded == flood.requests &&
        flood.other == 0 && flood.transport_errors == 0;
    const bool overload_explicit =
        flood.overloaded > 0 &&
        flood_stats.rejected_overload == flood.overloaded;
    // Every shed request must be in the black box with its explicit
    // outcome — the flight recorder exists for exactly this moment.
    std::size_t flight_overloaded = 0;
    for (const obs::FlightRecord& record :
         small_daemon.flight_recorder().snapshot()) {
        if (record.sample.outcome == obs::FlightOutcome::kOverloaded) {
            ++flight_overloaded;
        }
    }
    const bool flight_captured_overload =
        flight_overloaded == flood.overloaded;
    std::cout << "overload: " << flood.requests << " requests into a "
              << tiny.max_queue << "-deep queue: " << flood.ok
              << " served, " << flood.overloaded
              << " explicitly rejected, " << flight_overloaded
              << " in the flight ring\n";

    // ---- Phase 4: observability A/B ----------------------------------
    // Identical burst shape against two daemons, isolating what the
    // request-scoped layer adds on top of the baseline telemetry plane
    // (spans + metrics + logging stay on in BOTH arms): off = flight
    // ring disabled and untraced clients (v1 wire records), on = flight
    // ring at its default capacity and every client request under a
    // trace span (v2 records, daemon-side context adoption, tail-gated
    // retention). The arm uses a single serial client and no batch
    // stall: concurrent clients put batch-formation and scheduler
    // jitter (tens of µs) on top of a per-request cost measured in
    // hundreds of ns, which no number of samples averages away. The
    // arms still alternate over several rounds (cancelling machine-load
    // drift), with the arm that goes first swapped every round so that
    // neither arm always runs in the same slot, and each arm is scored by
    // its best round — the noise-floor estimator for latency
    // microbenchmarks.
    constexpr std::size_t kObsClients = 1;
    constexpr std::size_t kObsPerClient = 400;
    constexpr std::size_t kObsRounds = 7;
    const auto ab_daemon_options = [&](const char* name,
                                       std::size_t flight_capacity) {
        serve::DaemonOptions ab;
        ab.socket_path = bench_socket(name);
        ab.model_path = kModelAPath;
        ab.max_queue = 256;
        ab.max_batch = 32;
        ab.flight.capacity = flight_capacity;
        return ab;
    };

    serve::Daemon off_daemon(ab_daemon_options("obs_off", 0));
    serve::Daemon on_daemon(ab_daemon_options("obs_on", 4096));
    off_daemon.start();
    on_daemon.start();
    BurstResult off_burst;
    BurstResult on_burst;
    const auto accumulate = [](BurstResult& total, const BurstResult& round) {
        total.requests += round.requests;
        total.ok += round.ok;
        total.transport_errors += round.transport_errors;
        total.trace_echoed += round.trace_echoed;
    };
    std::vector<double> p50_off_rounds;
    std::vector<double> p50_on_rounds;
    for (std::size_t round = 0; round < kObsRounds; ++round) {
        BurstResult off_round;
        BurstResult on_round;
        const auto run_off = [&] {
            off_round = run_burst(off_daemon.socket_path(), kObsClients,
                                  kObsPerClient, features);
        };
        const auto run_on = [&] {
            on_round = run_burst(on_daemon.socket_path(), kObsClients,
                                 kObsPerClient, features, /*traced=*/true);
        };
        if (round % 2 == 0) {
            run_off();
            run_on();
        } else {
            run_on();
            run_off();
        }
        accumulate(off_burst, off_round);
        accumulate(on_burst, on_round);
        p50_off_rounds.push_back(percentile(off_round.latencies_us, 0.50));
        p50_on_rounds.push_back(percentile(on_round.latencies_us, 0.50));
    }
    const serve::DaemonStats on_stats = on_daemon.stats();
    off_daemon.stop();
    on_daemon.stop();

    const double p50_off =
        *std::min_element(p50_off_rounds.begin(), p50_off_rounds.end());
    const double p50_on =
        *std::min_element(p50_on_rounds.begin(), p50_on_rounds.end());
    const double obs_overhead_percent =
        p50_off > 0.0 ? (p50_on - p50_off) / p50_off * 100.0 : 0.0;
    const bool ab_all_ok = off_burst.ok == off_burst.requests &&
                           on_burst.ok == on_burst.requests &&
                           off_burst.transport_errors == 0 &&
                           on_burst.transport_errors == 0;
    // Holds under WIMI_ENABLE_OBS=OFF too: context propagation is part
    // of the wire contract, not the (compiled-out) span machinery.
    const bool trace_echoed = on_burst.trace_echoed == on_burst.ok &&
                              off_burst.trace_echoed == 0;
    // Sampler validity: every admitted request got a retain/drop
    // decision, and once warm the sampler is selective (some of this
    // all-successful traffic was dropped from full retention).
    const bool sampler_counts_consistent =
        on_stats.sampler_retained + on_stats.sampler_dropped ==
        on_stats.admitted;
    const bool sampler_tail_selective =
        on_stats.sampler_dropped > 0 &&
        on_stats.sampler_retained > 0;
    const bool flight_recorded_all =
        on_stats.flight_records == on_stats.admitted;
    std::cout << "obs A/B:  p50 off " << p50_off << " us, on " << p50_on
              << " us (" << obs_overhead_percent << "% overhead)\n"
              << "          trace echoed: " << (trace_echoed ? "yes" : "NO")
              << ", sampler retained " << on_stats.sampler_retained
              << " / dropped " << on_stats.sampler_dropped << '\n';

    const bool all_valid = burst_all_ok && coalesced &&
                           swap_zero_failed && swap_zero_mixed &&
                           swap_final_is_b && overload_all_answered &&
                           overload_explicit && flight_captured_overload &&
                           ab_all_ok && trace_echoed &&
                           sampler_counts_consistent &&
                           sampler_tail_selective && flight_recorded_all;
    std::cout << "\nvalid:    " << (all_valid ? "yes" : "NO") << '\n';

    run.context.note("throughput_per_s", throughput);
    run.context.note("p99_us", p99);
    run.context.note("valid", all_valid ? 1.0 : 0.0);

    std::FILE* out = std::fopen(kReportPath, "w");
    if (out == nullptr) {
        std::cerr << "warning: could not write " << kReportPath << '\n';
        return 1;
    }
    std::fprintf(
        out,
        "{\"schema\":\"wimi.bench_serve.v1\","
        "\"hardware_threads\":%zu,"
        "\"serve\":{"
        "\"clients\":%zu,"
        "\"requests\":%zu,"
        "\"all_answered\":%s,"
        "\"transport_errors\":%zu,"
        "\"coalesced\":%s,"
        "\"max_batch_size\":%llu,"
        "\"batches\":%llu,"
        "\"throughput_per_s\":%.3f,"
        "\"p50_us\":%.3f,"
        "\"p95_us\":%.3f,"
        "\"p99_us\":%.3f,"
        "\"swap\":{"
        "\"requests\":%zu,"
        "\"zero_failed\":%s,"
        "\"zero_mixed\":%s,"
        "\"final_digest_is_new\":%s},"
        "\"overload\":{"
        "\"requests\":%zu,"
        "\"served\":%zu,"
        "\"rejected\":%zu,"
        "\"all_answered\":%s,"
        "\"explicit_rejections\":%s,"
        "\"flight_captured_overload\":%s},"
        "\"obs\":{"
        "\"requests\":%zu,"
        "\"all_answered\":%s,"
        "\"p50_off_us\":%.3f,"
        "\"p50_on_us\":%.3f,"
        "\"obs_overhead_percent\":%.3f,"
        "\"trace_echoed\":%s,"
        "\"sampler_retained\":%llu,"
        "\"sampler_dropped\":%llu,"
        "\"sampler_counts_consistent\":%s,"
        "\"sampler_tail_selective\":%s,"
        "\"flight_recorded_all\":%s}}}\n",
        exec::hardware_threads(), kClients, burst.requests,
        burst_all_ok ? "true" : "false", burst.transport_errors,
        coalesced ? "true" : "false",
        static_cast<unsigned long long>(after_burst.max_batch_size),
        static_cast<unsigned long long>(after_burst.batches), throughput,
        p50, p95, p99, swap_burst.requests,
        swap_zero_failed ? "true" : "false",
        swap_zero_mixed ? "true" : "false",
        swap_final_is_b ? "true" : "false", flood.requests, flood.ok,
        flood.overloaded, overload_all_answered ? "true" : "false",
        overload_explicit ? "true" : "false",
        flight_captured_overload ? "true" : "false",
        on_burst.requests, ab_all_ok ? "true" : "false", p50_off, p50_on,
        obs_overhead_percent, trace_echoed ? "true" : "false",
        static_cast<unsigned long long>(on_stats.sampler_retained),
        static_cast<unsigned long long>(on_stats.sampler_dropped),
        sampler_counts_consistent ? "true" : "false",
        sampler_tail_selective ? "true" : "false",
        flight_recorded_all ? "true" : "false");
    std::fclose(out);
    std::cout << "report:   " << kReportPath << '\n';

    return all_valid ? 0 : 1;
}
