// serve-mixed: an open loop with a fixed arrival schedule drawn from the
// seed, into an in-process serve::Daemon (default DaemonOptions) over a
// real Unix socket, from four generator threads with one ServeClient
// each. Half the traffic is kPredictSeries on 20-packet captures — three
// of every four reuse a baseline from a pool of four deployments, the
// fourth carries a fresh one — and half kPredictFeatures, so heavy and
// light requests share one queue and batcher. Offered rates climb a
// 1.25x geometric ladder from ~262 req/s until the daemon saturates;
// every latency is timed from the request's scheduled send time. Before
// the ladder, a serial phase sends the same mix back to back over one
// connection.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_set>

#include "common/rng.hpp"
#include "exec/parallel.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/inference.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"
#include "serve/wire.hpp"

namespace perfbench {
namespace {

using namespace wimi;

constexpr std::size_t kGenerators = 4;
constexpr std::size_t kDeployments = 4;
constexpr std::size_t kTargetsPerDeployment = 16;
constexpr std::size_t kFreshPerLiquid = 26;     // 260 fresh-baseline pairs
constexpr std::size_t kFeaturesPerLiquid = 13;  // 130 feature vectors
constexpr double kLatencyLimitUs = 5000.0;
constexpr double kReportRate = 1000.0;  // the latency metrics' rate
constexpr double kLadderStep = 1.25;
constexpr int kLowestRung = -6;   // 1000 / 1.25^6 ~ 262 req/s
constexpr int kHighestRung = 16;  // 1000 * 1.25^16 ~ 35.5k req/s
constexpr std::size_t kReportRung = -kLowestRung;  // index of 1000 req/s
constexpr double kRungShare = 0.03;        // of --seconds per rung
constexpr double kReportRungShare = 0.3;   // of --seconds at 1000 req/s
// A top rung (at or above 1000 req/s) completes less than this share of
// what it offered: offered is 1.5x what the daemon completes, so the
// generators run back to back and the rung measures capacity, not where
// saturation happened to start. The first top rung runs kTopRungs times;
// serve_saturated_per_s is the fastest completion rate over
// kCapacitySliceSeconds slices of those rungs.
constexpr double kTopRung = 0.67;
constexpr std::size_t kTopRungs = 5;
constexpr double kCapacitySliceSeconds = 0.25;
// The serial phase: one connection sends the 1000 req/s rung's requests
// back to back for this share of --seconds. Its round trips carry the
// bounded figures (p50_us, ops_per_s): the open-loop rungs need every
// core of the machine at once and move with a shared host's load far
// more than one request at a time does.
constexpr double kSerialShare = 0.25;
constexpr double kLagGrowthUs = 1000.0;    // last- vs first-quarter lag
constexpr double kMissUs = 1e12;           // failed and shed requests
constexpr const char* kSocket = "serve.sock";
constexpr const char* kModel = "model.wmdl";

struct SeriesInput {
    const csi::CsiSeries* baseline = nullptr;
    const csi::CsiSeries* target = nullptr;
    int truth = 0;
    int reference = -1;  ///< in-process InferenceEngine label
};

struct FeatureInput {
    std::vector<double> features;
    int truth = 0;
    int reference = -1;
};

/// One deployment: a capture session whose baseline many requests share.
struct Deployment {
    csi::CsiSeries baseline;
    std::vector<csi::CsiSeries> targets;
    std::vector<int> labels;
};

struct Arrival {
    double at_s = 0.0;  ///< scheduled send, from the rung start
    bool series = false;
    std::uint32_t index = 0;  ///< into ServeSetup::series or ::features
};

struct Rung {
    double rate = 0.0;
    double duration_s = 0.0;
    std::vector<Arrival> arrivals;
};

struct ServeSetup {
    sim::Scenario scenario = lab_scenario();
    std::unique_ptr<serve::Daemon> daemon;
    std::unique_ptr<serve::InferenceEngine> engine;  ///< same model, in-process
    double setup_s = 0.0;
    Agreement agreement;
    std::vector<Deployment> deployments;
    std::vector<LabeledPair> fresh;
    std::vector<SeriesInput> series;  ///< pooled first, then fresh
    std::size_t pooled = 0;
    std::vector<FeatureInput> features;
    std::vector<Rung> ladder;  ///< every rung, lowest first
};

std::vector<Deployment> capture_deployments(const sim::Scenario& scenario,
                                            std::uint64_t seed) {
    const Unobserved unobserved;
    Rng rng(seed);
    std::vector<std::uint64_t> sessions;
    std::vector<std::vector<int>> labels(kDeployments);
    for (std::size_t d = 0; d < kDeployments; ++d) {
        sessions.push_back(rng.next_u64());
        for (std::size_t t = 0; t < kTargetsPerDeployment; ++t) {
            labels[d].push_back(
                static_cast<int>(rng.uniform_index(liquid_count())));
        }
    }
    const std::size_t packets = scenario.config().packets;
    return exec::parallel_map<Deployment>(kDeployments, [&](std::size_t d) {
        csi::CaptureSimulator session = scenario.make_session(sessions[d]);
        Deployment deployment;
        deployment.baseline = session.capture(scenario.scene(nullptr), packets);
        for (const int label : labels[d]) {
            deployment.targets.push_back(session.capture(
                scenario.scene(&rf::material_for(liquid(label))), packets));
            deployment.labels.push_back(label);
        }
        return deployment;
    });
}

/// Pre-draws every rung's arrivals, so the schedule depends on the seed
/// only — never on where the ladder stops.
std::vector<Rung> draw_ladder(std::uint64_t seed, double seconds,
                              const ServeSetup& s) {
    std::vector<Rung> ladder;
    std::uint64_t series_sent = 0;
    std::uint64_t fresh_sent = 0;
    const std::size_t fresh = s.series.size() - s.pooled;
    for (int k = kLowestRung; k <= kHighestRung; ++k) {
        Rung rung;
        rung.rate = kReportRate * std::pow(kLadderStep, k);
        rung.duration_s = (k == 0 ? kReportRungShare : kRungShare) * seconds;
        Rng rng(derive_seed(seed, static_cast<std::uint64_t>(100 + k)));
        const double gap_s = 1.0 / rung.rate;
        for (double t = rng.exponential(gap_s); t < rung.duration_s;
             t += rng.exponential(gap_s)) {
            Arrival a;
            a.at_s = t;
            a.series = rng.bernoulli(0.5);
            if (a.series) {
                // Three of every four series requests reuse a deployment
                // baseline; the fourth carries a fresh one.
                a.index = static_cast<std::uint32_t>(
                    series_sent++ % 4 == 3
                        ? s.pooled + fresh_sent++ % fresh
                        : rng.uniform_index(s.pooled));
            } else {
                a.index = static_cast<std::uint32_t>(
                    rng.uniform_index(s.features.size()));
            }
            rung.arrivals.push_back(a);
        }
        ladder.push_back(std::move(rung));
    }
    return ladder;
}

std::unique_ptr<serve::Daemon> start_daemon() {
    serve::DaemonOptions options;
    options.socket_path = kSocket;
    options.model_path = kModel;
    auto daemon = std::make_unique<serve::Daemon>(options);
    daemon->start();
    return daemon;
}

void prepare(const Options& options, ServeSetup& s, Outcome& out) {
    const TrainingSet training = capture_training_set(s.scenario);
    std::unique_ptr<core::Wimi> wimi;
    s.setup_s = time_setup(
        [&] {
            wimi = std::make_unique<core::Wimi>(train_wimi(training));
            serve::save_model_file(kModel, serve::snapshot_model(*wimi));
            s.daemon = start_daemon();
        },
        [&] {
            s.daemon->stop();
            s.daemon.reset();
            serve::InferenceEngine::clear_cache();  // every set-up loads anew
        });
    s.engine = std::make_unique<serve::InferenceEngine>(
        serve::snapshot_model(*wimi));
    s.agreement = check_agreement(*wimi, *s.engine, s.scenario);
    out.attempted += s.agreement.checks;
    out.failed += s.agreement.disagreements;

    s.deployments =
        capture_deployments(s.scenario, derive_seed(options.seed, 4));
    s.fresh = capture_unseen(s.scenario, derive_seed(options.seed, 5),
                             kFreshPerLiquid);
    Rng order(derive_seed(options.seed, 6));
    std::vector<std::size_t> fresh_order(s.fresh.size());
    for (std::size_t i = 0; i < fresh_order.size(); ++i) {
        fresh_order[i] = i;
    }
    order.shuffle(fresh_order);
    for (const Deployment& d : s.deployments) {
        for (std::size_t t = 0; t < d.targets.size(); ++t) {
            s.series.push_back({&d.baseline, &d.targets[t], d.labels[t], -1});
        }
    }
    s.pooled = s.series.size();
    for (const std::size_t i : fresh_order) {
        s.series.push_back({&s.fresh[i].pair.baseline,
                            &s.fresh[i].pair.target, s.fresh[i].label, -1});
    }
    for (SeriesInput& x : s.series) {
        x.reference = s.engine->predict(*x.baseline, *x.target).material_id;
    }
    for (const LabeledPair& m :
         capture_unseen(s.scenario, derive_seed(options.seed, 7),
                        kFeaturesPerLiquid)) {
        FeatureInput f;
        f.features = s.engine->features(m.pair.baseline, m.pair.target);
        f.truth = m.label;
        f.reference = s.engine->predict_features(f.features).material_id;
        s.features.push_back(std::move(f));
    }
    s.ladder = draw_ladder(options.seed, options.seconds, s);

    Digest digest;
    for (const SeriesInput& x : s.series) {
        digest.series(*x.baseline);
        digest.series(*x.target);
        digest.value(x.truth);
    }
    for (const FeatureInput& f : s.features) {
        digest.bytes(f.features.data(), f.features.size() * sizeof(double));
    }
    for (const Rung& rung : s.ladder) {
        for (const Arrival& a : rung.arrivals) {
            digest.value(a.at_s);
            digest.value(a.series);
            digest.value(a.index);
        }
    }
    print_identity("serve-mixed", digest);
}

enum class Answer : std::uint8_t { kOk, kShed, kFailed };

struct Sample {
    double latency_us = 0.0;  ///< completion - scheduled send
    double lag_us = 0.0;      ///< actual send - scheduled send
    double done_s = 0.0;      ///< completion, from the rung start
    double queue_us = 0.0;
    double batch_wall_us = 0.0;
    std::uint32_t batch_size = 0;
    bool series = false;
    bool right = false;  ///< label equals the true liquid
    Answer answer = Answer::kFailed;
};

struct RungResult {
    double rate = 0.0;
    std::size_t sent = 0, ok = 0, shed = 0, failed = 0, right = 0;
    double completed_per_s = 0.0;
    double p50_us = 0.0;  ///< every request; failures and sheds miss
    double p99_us = 0.0;
    double lag_p99_us = 0.0;
    bool lag_growing = false;
    bool pass = false;
    bool top = false;  ///< far enough past saturation to end the ladder
    AllocCounts allocs;  ///< allocations during the rung (traced binary)
    std::vector<Sample> samples;
};

using Clients = std::vector<std::unique_ptr<serve::ServeClient>>;

/// Sends one request; the sample's answer and telemetry are filled in.
void send(serve::ServeClient& client, const ServeSetup& s, const Arrival& a,
          Sample& sample) {
    serve::ClientResult result;
    int reference = -1;
    int truth = -1;
    if (a.series) {
        const SeriesInput& x = s.series[a.index];
        result = client.predict_series(*x.baseline, *x.target);
        reference = x.reference;
        truth = x.truth;
    } else {
        const FeatureInput& x = s.features[a.index];
        result = client.predict_features(x.features);
        reference = x.reference;
        truth = x.truth;
    }
    if (result.ok()) {
        sample.answer =
            result.material_id == reference ? Answer::kOk : Answer::kFailed;
        sample.right = result.material_id == truth;
        sample.queue_us = result.queue_us;
        sample.batch_wall_us = result.batch_wall_us;
        sample.batch_size = result.batch_size;
    } else if (result.status == serve::wire::Status::kOverloaded ||
               result.status == serve::wire::Status::kShuttingDown) {
        sample.answer = Answer::kShed;
    }
}

RungResult run_rung(Clients& clients, const Rung& rung, const ServeSetup& s) {
    std::vector<Sample> samples(rung.arrivals.size());
    const AllocCounts allocs_before = alloc_counts();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    // A free generator takes the next arrival, so a request waits for a
    // connection only while all of them are busy.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> generators;
    for (std::size_t g = 0; g < clients.size(); ++g) {
        generators.emplace_back([&, g] {
            for (std::size_t j = next++; j < rung.arrivals.size(); j = next++) {
                const Arrival& a = rung.arrivals[j];
                const auto due = after(start, a.at_s);
                std::this_thread::sleep_until(due);
                const auto sent = Clock::now();
                Sample& sample = samples[j];
                sample.series = a.series;
                try {
                    if (!clients[g]) {  // reconnect after a broken one
                        clients[g] = std::make_unique<serve::ServeClient>(kSocket);
                    }
                    send(*clients[g], s, a, sample);
                } catch (const std::exception&) {
                    sample.answer = Answer::kFailed;
                    clients[g].reset();
                }
                const auto done = Clock::now();
                sample.lag_us = us_between(due, sent);
                sample.latency_us = us_between(due, done);
                sample.done_s = std::chrono::duration<double>(done - start).count();
            }
        });
    }
    for (std::thread& generator : generators) {
        generator.join();
    }
    const AllocCounts allocs_after = alloc_counts();

    RungResult r;
    r.rate = rung.rate;
    r.sent = samples.size();
    r.allocs = {allocs_after.count - allocs_before.count,
                allocs_after.bytes - allocs_before.bytes};
    std::vector<double> latencies;
    std::vector<double> lags;
    double end_s = rung.duration_s;
    for (const Sample& sample : samples) {
        r.ok += sample.answer == Answer::kOk ? 1 : 0;
        r.shed += sample.answer == Answer::kShed ? 1 : 0;
        r.failed += sample.answer == Answer::kFailed ? 1 : 0;
        r.right += sample.answer == Answer::kOk && sample.right ? 1 : 0;
        latencies.push_back(sample.answer == Answer::kOk ? sample.latency_us
                                                         : kMissUs);
        lags.push_back(sample.lag_us);
        end_s = std::max(end_s, sample.done_s);
    }
    r.completed_per_s = static_cast<double>(r.ok) / end_s;
    const double offered = static_cast<double>(r.sent) / rung.duration_s;
    r.top = r.completed_per_s < kTopRung * offered;
    r.p50_us = quantile(latencies, 0.50);
    r.p99_us = quantile(latencies, 0.99);
    r.lag_p99_us = quantile(lags, 0.99);
    const std::size_t quarter = lags.size() / 4;
    if (quarter > 0) {
        const std::vector<double> first(lags.begin(),
                                        lags.begin() +
                                            static_cast<std::ptrdiff_t>(quarter));
        const std::vector<double> last(lags.end() -
                                           static_cast<std::ptrdiff_t>(quarter),
                                       lags.end());
        r.lag_growing =
            quantile(last, 0.5) - quantile(first, 0.5) > kLagGrowthUs;
    }
    r.pass = r.sent > 0 && r.p99_us <= kLatencyLimitUs && !r.lag_growing;
    r.samples = std::move(samples);
    std::printf(
        "ladder rate_per_s=%.0f sent=%zu succeeded=%zu shed=%zu failed=%zu "
        "completed_per_s=%.1f p50_us=%.0f p99_us=%.0f lag_p99_us=%.0f "
        "lag_growing=%d meets_limit=%d\n",
        r.rate, r.sent, r.ok, r.shed, r.failed, r.completed_per_s,
        std::min(r.p50_us, 1e9), std::min(r.p99_us, 1e9), r.lag_p99_us, r.lag_growing ? 1 : 0,
        r.pass ? 1 : 0);
    std::fflush(stdout);
    return r;
}

struct LadderRun {
    std::vector<RungResult> rungs;  ///< as run, lowest first
    double max_rate = 0.0;          ///< highest rung meeting the limit
    std::size_t sent = 0, ok = 0, shed = 0, failed = 0, right = 0;
    double saturated_per_s = 0.0;  ///< fastest completion slice, top rungs
    double baseline_repeat_share = 0.0;
    serve::DaemonStats stats_delta;

    const RungResult& at_report() const { return rungs[kReportRung]; }
    const RungResult& top() const { return rungs.back(); }
};

/// Completed requests per second in consecutive kCapacitySliceSeconds
/// slices of a rung, its last partial slice left out.
std::vector<double> completion_rates(const RungResult& r) {
    double end_s = 0.0;
    for (const Sample& sample : r.samples) {
        end_s = std::max(end_s, sample.done_s);
    }
    std::vector<double> counts(
        static_cast<std::size_t>(end_s / kCapacitySliceSeconds), 0.0);
    for (const Sample& sample : r.samples) {
        const auto slice =
            static_cast<std::size_t>(sample.done_s / kCapacitySliceSeconds);
        if (sample.answer == Answer::kOk && slice < counts.size()) {
            counts[slice] += 1.0 / kCapacitySliceSeconds;
        }
    }
    return counts;
}

/// Climbs the ladder from ~262 req/s to the first rung at or above
/// 1000 req/s that runs past saturation (see kTopRung), then runs that
/// rung kTopRungs - 1 more times.
LadderRun run_ladder(const ServeSetup& s, const Options& options) {
    Clients clients;
    for (std::size_t g = 0; g < kGenerators; ++g) {
        clients.push_back(std::make_unique<serve::ServeClient>(kSocket));
    }
    // Warm-up: the first part of the 1000 req/s schedule, not recorded.
    Rung warmup = s.ladder[kReportRung];
    warmup.arrivals.resize(warmup.arrivals.size() / 6);
    warmup.duration_s /= 6.0;
    std::cout << "warm-up ";
    run_rung(clients, warmup, s);

    const serve::DaemonStats before = s.daemon->stats();
    LadderRun run;
    std::size_t top_rungs = 0;
    std::vector<double> top_rates;  ///< per capacity slice
    std::vector<const Rung*> ran;
    const auto start = Clock::now();
    for (std::size_t k = 0; k < s.ladder.size();) {
        ran.push_back(&s.ladder[k]);
        run.rungs.push_back(run_rung(clients, s.ladder[k], s));
        const RungResult& r = run.rungs.back();
        if (r.pass) {
            run.max_rate = std::max(run.max_rate, r.rate);
        }
        run.sent += r.sent;
        run.ok += r.ok;
        run.shed += r.shed;
        run.failed += r.failed;
        run.right += r.right;
        if (k >= kReportRung && (r.top || top_rungs > 0)) {
            ++top_rungs;
            const std::vector<double> rates = completion_rates(r);
            top_rates.insert(top_rates.end(), rates.begin(), rates.end());
        }
        if (top_rungs == kTopRungs ||
            (k >= kReportRung && seconds_since(start) > 2.0 * options.seconds)) {
            break;
        }
        k += top_rungs == 0 ? 1 : 0;
    }
    run.saturated_per_s =
        top_rates.empty() ? run.rungs.back().completed_per_s
                          : slice_figure("serve_saturated_per_s", top_rates, false);
    clients.clear();
    const serve::DaemonStats after = s.daemon->stats();
    run.stats_delta.shed = after.shed - before.shed;
    run.stats_delta.failed = after.failed - before.failed;

    // Measured share of series requests whose baseline bytes the daemon
    // had already been sent (same capture object = same bytes).
    std::unordered_set<const csi::CsiSeries*> seen;
    std::size_t series = 0;
    std::size_t repeats = 0;
    for (const Rung* rung : ran) {
        for (const Arrival& a : rung->arrivals) {
            if (a.series) {
                ++series;
                repeats += seen.insert(s.series[a.index].baseline).second ? 0 : 1;
            }
        }
    }
    run.baseline_repeat_share =
        series > 0 ? static_cast<double>(repeats) / static_cast<double>(series)
                   : 0.0;
    return run;
}

struct SerialRun {
    std::vector<double> round_trip_us;  ///< every request, in order
    std::vector<double> series_us;      ///< series requests, in order
    std::size_t sent = 0, ok = 0, failed = 0, right = 0;
};

/// The serial phase (see kSerialShare), after an unrecorded warm-up of a
/// tenth of it.
SerialRun run_serial(const ServeSetup& s, double seconds) {
    serve::ServeClient client(kSocket);
    const std::vector<Arrival>& arrivals = s.ladder[kReportRung].arrivals;
    SerialRun run;
    std::size_t j = 0;
    for (const bool recorded : {false, true}) {
        const auto deadline =
            after(Clock::now(), (recorded ? 1.0 : 0.1) * seconds);
        while (Clock::now() < deadline) {
            const Arrival& a = arrivals[j++ % arrivals.size()];
            Sample sample;
            const auto t0 = Clock::now();
            send(client, s, a, sample);
            const double us = us_between(t0, Clock::now());
            if (!recorded) {
                continue;
            }
            ++run.sent;
            run.ok += sample.answer == Answer::kOk ? 1 : 0;
            run.failed += sample.answer == Answer::kOk ? 0 : 1;
            run.right += sample.answer == Answer::kOk && sample.right ? 1 : 0;
            const double latency = sample.answer == Answer::kOk ? us : kMissUs;
            run.round_trip_us.push_back(latency);
            if (a.series) {
                run.series_us.push_back(latency);
            }
        }
    }
    return run;
}

/// Latencies at one rung of one request kind; failures and sheds miss.
std::vector<double> latencies(const RungResult& r, bool series) {
    std::vector<double> out;
    for (const Sample& sample : r.samples) {
        if (sample.series == series) {
            out.push_back(sample.answer == Answer::kOk ? sample.latency_us
                                                       : kMissUs);
        }
    }
    return out;
}

void run_end_to_end(const Options& options, ServeSetup& s, Outcome& out,
                    Report& report) {
    const double serial_s = kSerialShare * options.seconds;
    const SerialRun serial = run_serial(s, serial_s);
    // A round trip hands off between client and daemon threads, so a busy
    // host slows every slice by a varying amount rather than leaving some
    // clean: the median slice is the steadier figure here.
    const std::size_t slices = slices_in(serial_s);
    const double serial_per_s = sliced_rate(
        "serial_per_s", serial.round_trip_us, slices, kMedianSlice);
    const double serial_p50 =
        sliced_quantile("serial_series_p50_us", serial.series_us, 0.50,
                        slices, kMedianSlice);
    std::printf("serial sent=%zu succeeded=%zu failed=%zu\n", serial.sent,
                serial.ok, serial.failed);

    const LadderRun run = run_ladder(s, options);
    out.attempted += serial.sent + run.sent;
    out.failed += serial.failed + run.shed + run.failed;
    const RungResult& at = run.at_report();
    const std::vector<double> series = latencies(at, true);
    const std::vector<double> features = latencies(at, false);
    const double rung_s = s.ladder[kReportRung].duration_s;
    report.show("serial_per_s", serial_per_s, "1/s");
    report.show("serial_series_p50_us", serial_p50, "us");
    report.show("serial_series_samples",
                static_cast<double>(serial.series_us.size()), "count");
    report.show("series_p50_us",
                sliced_quantile("series_p50_us", series, 0.50,
                                slices_in(rung_s)),
                "us");
    report.show("series_p99_us",
                sliced_quantile("series_p99_us", series, 0.99,
                                slices_in(rung_s, kTailSliceSeconds)),
                "us");
    report.show("series_samples", static_cast<double>(series.size()), "count");
    report.show("features_p99_us",
                sliced_quantile("features_p99_us", features, 0.99,
                                slices_in(rung_s, kTailSliceSeconds)),
                "us");
    report.show("features_samples", static_cast<double>(features.size()),
                "count");
    report.show("serve_max_rate_per_s", run.max_rate, "1/s");
    report.show("serve_saturated_per_s", run.saturated_per_s, "1/s");
    report.show("loadgen.lag_p99_us", at.lag_p99_us, "us");
    report.show("error_ratio",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                "ratio");
    const std::size_t answered = serial.ok + run.ok;
    report.metric("setup_s", s.setup_s, "s");
    report.metric("accuracy",
                  answered > 0 ? static_cast<double>(serial.right + run.right) /
                                     static_cast<double>(answered)
                               : 0.0,
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("ops_per_s", serial_per_s, "1/s");
    report.metric("p50_us", serial_p50, "us");
}

void run_traced(const Options& options, ServeSetup& s, Outcome& out,
                Report& report) {
    const LadderRun run = run_ladder(s, options);
    out.attempted += run.sent;
    out.failed += run.shed + run.failed;
    const RungResult& at = run.at_report();

    std::vector<double> queue_us;
    std::vector<double> batch_wall_us;
    std::vector<double> series_queue_us;
    double series_latency_us = 0.0;
    std::size_t series_ok = 0;
    for (const Sample& sample : at.samples) {
        if (sample.answer != Answer::kOk) {
            continue;
        }
        queue_us.push_back(sample.queue_us);
        batch_wall_us.push_back(sample.batch_wall_us);
        if (sample.series) {
            series_queue_us.push_back(sample.queue_us);
            series_latency_us += sample.latency_us;
            ++series_ok;
        }
    }
    double batch_size = 0.0;
    std::size_t answered = 0;
    for (const Sample& sample : run.top().samples) {
        if (sample.answer == Answer::kOk) {
            batch_size += sample.batch_size;
            ++answered;
        }
    }
    report.metric("p99_us",
                  sliced_quantile("series_p99_us", latencies(at, true), 0.99,
                                  slices_in(s.ladder[kReportRung].duration_s,
                                            kTailSliceSeconds)),
                  "us");
    report.metric("serve.queue_wait_p50_us", quantile(queue_us, 0.50), "us");
    report.metric("serve.queue_wait_p99_us", quantile(queue_us, 0.99), "us");
    report.metric("serve.batch_wall_p50_us", quantile(batch_wall_us, 0.50),
                  "us");
    report.metric("serve.batch_size_mean",
                  answered > 0 ? batch_size / static_cast<double>(answered)
                               : 0.0,
                  "count");
    report.metric("serve.baseline_repeat_share", run.baseline_repeat_share,
                  "ratio");
    report.metric("serve.shed", static_cast<double>(run.stats_delta.shed),
                  "count");
    report.metric("serve.failed", static_cast<double>(run.stats_delta.failed),
                  "count");
    report.metric("serve.features_p99_us",
                  sliced_quantile("features_p99_us", latencies(at, false),
                                  0.99,
                                  slices_in(s.ladder[kReportRung].duration_s,
                                            kTailSliceSeconds)),
                  "us");
    report.metric("serve.max_rate_per_s", run.max_rate, "1/s");
    report.metric("serve.saturated_per_s", run.saturated_per_s, "1/s");
    report.metric("serve.series_p50_us",
                  sliced_quantile("series_p50_us", latencies(at, true), 0.50,
                                  slices_in(s.ladder[kReportRung].duration_s)),
                  "us");
    report.metric("loadgen.lag_p99_us", at.lag_p99_us, "us");
    report.metric("allocs_per_op",
                  static_cast<double>(at.allocs.count) /
                      static_cast<double>(at.sent),
                  "count");
    report.metric("alloc_bytes_per_op",
                  static_cast<double>(at.allocs.bytes) /
                      static_cast<double>(at.sent),
                  "bytes");

    // In-process layer calls on the same series inputs, daemon idle: the
    // client's encode, the daemon's decode and engine call, the response
    // round trip, and the engine call as layer calls.
    const serve::InferenceEngine& engine = *s.engine;
    const ModelView model = view_of(engine.model());
    LayerSweep sweep;
    std::vector<double> engine_us;
    double request_bytes = 0.0;
    auto deadline = after(Clock::now(), 0.15 * options.seconds);
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const SeriesInput& x = s.series[k % s.series.size()];
        serve::wire::Request request;
        request.type = serve::wire::MessageType::kPredictSeries;
        request.request_id = k + 1;
        request.baseline = *x.baseline;
        request.target = *x.target;
        Spans& spans = sweep.spans;
        const std::vector<std::uint8_t> record = spans.time(
            "serve.encode_series",
            [&] { return serve::wire::encode_request(request); });
        const serve::wire::Request decoded = spans.time(
            "serve.decode_series",
            [&] { return serve::wire::decode_request(record); });
        const auto t0 = Clock::now();
        const serve::Prediction prediction =
            engine.predict(decoded.baseline, decoded.target);
        engine_us.push_back(us_between(t0, Clock::now()));
        serve::wire::Response response;
        response.request_id = decoded.request_id;
        response.material_id = prediction.material_id;
        response.material_name = prediction.material_name;
        response.model_digest = engine.digest();
        spans.time("serve.response_codec", [&] {
            return serve::wire::decode_response(
                serve::wire::encode_response(response));
        });
        request_bytes += static_cast<double>(record.size());
        const int composed =
            sweep_identification(*x.baseline, *x.target, model, sweep);
        ++out.attempted;
        if (prediction.material_id != x.reference ||
            composed != x.reference) {
            ++out.failed;
        }
    }
    const double ops = static_cast<double>(sweep.ops);
    report_feature_layers(sweep, report);
    const double encode = sweep.spans.total_us("serve.encode_series") / ops;
    const double decode = sweep.spans.total_us("serve.decode_series") / ops;
    const double codec = sweep.spans.total_us("serve.response_codec") / ops;
    const double engine_series = mean(engine_us);
    report.metric("serve.encode_series_us", encode, "us");
    report.metric("serve.decode_series_us", decode, "us");
    report.metric("serve.request_bytes_series", request_bytes / ops, "bytes");
    report.metric("serve.engine_series_us", engine_series, "us");

    Spans feature_spans;
    std::uint64_t feature_ops = 0;
    deadline = after(Clock::now(), 0.05 * options.seconds);
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const FeatureInput& f = s.features[k % s.features.size()];
        const int label = feature_spans.time("serve.engine_features", [&] {
            return engine.predict_features(f.features).material_id;
        });
        ++feature_ops;
        ++out.attempted;
        if (label != f.reference) {
            ++out.failed;
        }
    }
    report.metric("serve.engine_features_us",
                  feature_spans.total_us("serve.engine_features") /
                      static_cast<double>(feature_ops),
                  "us");

    // A series request at 1000 req/s = client encode + queue wait +
    // daemon decode + engine + response codec; the rest is transport,
    // scheduling and generator lag.
    const double latency =
        series_latency_us / static_cast<double>(std::max<std::size_t>(1, series_ok));
    const double layers =
        encode + mean(series_queue_us) + decode + engine_series + codec;
    report.metric("unattributed_share", (latency - layers) / latency, "ratio");
    report.metric("trace_overhead_share",
                  (sweep.composed_us / ops - engine_series) / engine_series,
                  "ratio");
    const std::size_t obs_inputs = std::min<std::size_t>(32, s.series.size());
    report.metric("obs.overhead_share",
                  obs_overhead_share(
                      [&] {
                          for (std::size_t i = 0; i < obs_inputs; ++i) {
                              engine.predict(*s.series[i].baseline,
                                             *s.series[i].target);
                          }
                      },
                      0.1 * options.seconds),
                  "ratio");
}

}  // namespace

Outcome run_serve(const Options& options, Report& report) {
    ServeSetup setup;
    Outcome out;
    prepare(options, setup, out);
    if (options.trace) {
        run_traced(options, setup, out, report);
    } else {
        run_end_to_end(options, setup, out, report);
    }
    setup.daemon->stop();
    return out;
}

}  // namespace perfbench
