// stream-follow: set-up writes a WCSI v2 trace of several liquids in
// sequence, captured in one session against one fixed 200-packet
// baseline; the timed run decodes it with csi::TraceReader and pushes
// every frame into a StreamingPipeline (window 64, hop 16, PSI gate from
// the model's training reference). Every window shares the baseline, so
// state derived from the baseline is recomputed per window today.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/streaming_feature.hpp"
#include "csi/ring.hpp"
#include "csi/trace_io.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "ml/drift.hpp"
#include "stream/pipeline.hpp"
#include "stream/smoother.hpp"
#include "stream/window.hpp"

namespace perfbench {
namespace {

using namespace wimi;

constexpr std::size_t kBaselinePackets = 200;  // 2 s at 100 packets/s
constexpr std::size_t kSegments = 4;           // distinct liquids in turn
constexpr std::size_t kSegmentFrames = 256;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kHop = 16;
constexpr std::size_t kCheckEvery = 4;  // bit-identity sample of windows

stream::StreamConfig stream_config() {
    stream::StreamConfig config;
    config.window = kWindow;
    config.hop = kHop;
    return config;
}

/// What one window of the reference pass decided.
struct WindowRef {
    std::uint64_t first_frame = 0;
    int raw = -1;
    int stable = -1;
    bool gated = false;
};

struct StreamSetup {
    sim::Scenario scenario = lab_scenario();
    csi::CsiSeries baseline;
    csi::CsiSeries trace;     ///< every segment, timestamps re-based
    std::vector<int> truth;   ///< true liquid per frame
    std::string path;         ///< the WCSI v2 file the run decodes
    std::unique_ptr<core::Wimi> wimi;
    ml::PsiReference psi;
    std::optional<stream::StreamingPipeline> pipeline;
    double setup_s = 0.0;
    Agreement agreement;
    std::vector<WindowRef> reference;  ///< one pass
    std::uint64_t windows = 0, changes = 0, drift_gated = 0;  ///< per pass
};

void capture_trace(const Options& options, StreamSetup& s) {
    const Unobserved unobserved;
    Rng rng(derive_seed(options.seed, 3));
    std::vector<std::size_t> liquids(liquid_count());
    std::iota(liquids.begin(), liquids.end(), std::size_t{0});
    rng.shuffle(liquids);
    csi::CaptureSimulator session = s.scenario.make_session(rng.next_u64());
    s.baseline = session.capture(s.scenario.scene(nullptr), kBaselinePackets);
    double offset_s = s.baseline.frames.back().timestamp_s;
    for (std::size_t segment = 0; segment < kSegments; ++segment) {
        const int label = static_cast<int>(liquids[segment]);
        csi::CsiSeries capture = session.capture(
            s.scenario.scene(&rf::material_for(liquid(label))),
            kSegmentFrames);
        // Each capture starts at t = 0; continue the session's clock.
        const double shift_s = offset_s + 0.010;
        for (csi::CsiFrame& frame : capture.frames) {
            frame.timestamp_s += shift_s;
            s.trace.frames.push_back(std::move(frame));
            s.truth.push_back(label);
        }
        offset_s = s.trace.frames.back().timestamp_s;
    }
    s.path = "stream-" + std::to_string(options.seed) + ".wcsi";
    csi::write_trace_file(s.path, s.trace);
}

/// Decodes the trace file and pushes every frame; returns the windows.
std::vector<stream::WindowResult> reference_pass(StreamSetup& s) {
    s.pipeline->reset();
    std::ifstream file(s.path, std::ios::binary);
    csi::TraceReader reader(file);
    std::vector<stream::WindowResult> windows;
    while (std::optional<csi::CsiFrame> frame = reader.next()) {
        if (auto result = s.pipeline->push(*frame)) {
            windows.push_back(std::move(*result));
        }
    }
    ensure(reader.report().clean() &&
               reader.report().frames_recovered == s.trace.packet_count(),
           "stream-follow: the trace did not decode cleanly");
    return windows;
}

void prepare(const Options& options, StreamSetup& s, Outcome& out) {
    const TrainingSet training = capture_training_set(s.scenario);
    capture_trace(options, s);
    s.setup_s = time_setup(
        [&] {
            s.wimi = std::make_unique<core::Wimi>(train_wimi(training));
            s.psi = ml::make_psi_reference(s.wimi->database().dataset());
            s.pipeline.emplace(
                stream_config(),
                core::make_window_extractor(*s.wimi, s.baseline),
                stream::make_classifier(*s.wimi), s.psi);
        },
        // The pipeline refers to the Wimi the next set-up replaces.
        [&] { s.pipeline.reset(); });
    const serve::InferenceEngine engine(serve::snapshot_model(*s.wimi));
    s.agreement = check_agreement(*s.wimi, engine, s.scenario);
    out.attempted += s.agreement.checks;
    out.failed += s.agreement.disagreements;

    // Reference pass: per-window decisions every timed pass must repeat,
    // and a sample of windows checked bit-for-bit against Wimi::features
    // on the same frames.
    const std::vector<stream::WindowResult> windows = reference_pass(s);
    std::uint64_t sampled = 0;
    std::uint64_t mismatched = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const stream::WindowResult& r = windows[w];
        s.reference.push_back(
            {r.first_frame, r.raw_label, r.stable_label, r.drift_gated});
        if (w % kCheckEvery != 0) {
            continue;
        }
        csi::CsiSeries frames;
        const auto first = s.trace.frames.begin() +
                           static_cast<std::ptrdiff_t>(r.first_frame);
        frames.frames.assign(first,
                             first + static_cast<std::ptrdiff_t>(kWindow));
        ++sampled;
        if (!bit_identical(r.features, s.wimi->features(s.baseline, frames)) ||
            r.raw_label !=
                s.wimi->identify(s.baseline, frames).material_id) {
            ++mismatched;
        }
    }
    std::cout << "stream windows_checked=" << sampled
              << " vs Wimi::features mismatched=" << mismatched << '\n';
    out.attempted += sampled;
    out.failed += mismatched;
    s.windows = s.pipeline->windows_emitted();
    s.changes = s.pipeline->changes();
    s.drift_gated = s.pipeline->drift_gated_windows();

    Digest digest;
    digest.series(s.baseline);
    digest.series(s.trace);
    for (const int label : s.truth) {
        digest.value(label);
    }
    print_identity("stream-follow", digest);
}

/// Share of windows lying inside one liquid segment whose raw label is
/// that liquid.
double window_accuracy(const StreamSetup& s) {
    std::uint64_t inside = 0;
    std::uint64_t right = 0;
    for (const WindowRef& w : s.reference) {
        const int label = s.truth[w.first_frame];
        if (s.truth[w.first_frame + kWindow - 1] != label) {
            continue;
        }
        ++inside;
        right += w.raw == label ? 1 : 0;
    }
    return inside > 0 ? static_cast<double>(right) / static_cast<double>(inside)
                      : 0.0;
}

/// One pass over the trace file through the real pipeline;
/// on_push(push_us, emitted) sees every push and `decode_us` (when set)
/// accumulates TraceReader::next. Returns the number of mismatches
/// against the reference pass.
template <typename OnPush>
std::uint64_t real_pass(StreamSetup& s, double* decode_us, OnPush&& on_push) {
    s.pipeline->reset();
    std::ifstream file(s.path, std::ios::binary);
    csi::TraceReader reader(file);
    std::uint64_t mismatches = 0;
    std::size_t w = 0;
    while (true) {
        const auto t0 = Clock::now();
        std::optional<csi::CsiFrame> frame = reader.next();
        const auto t1 = Clock::now();
        if (!frame) {
            break;
        }
        if (decode_us != nullptr) {
            *decode_us += us_between(t0, t1);
        }
        const auto t2 = Clock::now();
        std::optional<stream::WindowResult> result = s.pipeline->push(*frame);
        const double push_us = us_between(t2, Clock::now());
        on_push(push_us, result.has_value());
        if (result) {
            const bool same = w < s.reference.size() &&
                              result->raw_label == s.reference[w].raw &&
                              result->stable_label == s.reference[w].stable;
            mismatches += same ? 0 : 1;
            ++w;
        }
    }
    return mismatches + (w == s.reference.size() ? 0 : 1);
}

void run_end_to_end(const Options& options, StreamSetup& s, Outcome& out,
                    Report& report) {
    std::vector<double> window_us;
    std::vector<double> pass_rates;  // frames per second of each pass
    const auto deadline = after(Clock::now(), options.seconds);
    while (Clock::now() < deadline) {
        const auto start = Clock::now();
        std::uint64_t frames = 0;
        const std::uint64_t mismatches =
            real_pass(s, nullptr, [&](double us, bool emitted) {
                ++frames;
                if (emitted) {
                    window_us.push_back(us);
                }
            });
        pass_rates.push_back(static_cast<double>(frames) /
                             seconds_since(start));
        out.attempted += s.reference.size();
        out.failed += mismatches;
    }
    const double frames_per_s =
        slice_figure("stream_frames_per_s", pass_rates, false);
    const std::size_t slices = slices_in(options.seconds);
    const double p50 =
        sliced_quantile("window_p50_us", window_us, 0.50, slices);
    const double p99 =
        sliced_quantile("window_p99_us", window_us, 0.99,
                        slices_in(options.seconds, kTailSliceSeconds));
    report.show("stream_frames_per_s", frames_per_s, "1/s");
    report.show("window_p50_us", p50, "us");
    report.show("window_p99_us", p99, "us");
    report.show("window_samples", static_cast<double>(window_us.size()),
                "count");
    report.show("error_ratio",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                "ratio");
    report.metric("setup_s", s.setup_s, "s");
    report.metric("accuracy", window_accuracy(s), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("ops_per_s", frames_per_s, "1/s");
    report.metric("p50_us", p50, "us");
}

/// One pass over the trace with the pipeline's layers as spanned public
/// calls: FrameRing, WindowPlanner, WindowFeatureExtractor, the model's
/// scaler and SVM, OnlinePsiGate and DecisionSmoother, in the order
/// StreamingPipeline::push calls them. Per window it also decomposes the
/// feature call. Returns the mismatches against the reference pass.
std::uint64_t composed_pass(StreamSetup& s, const csi::CsiSoa& baseline_soa,
                            LayerSweep& sweep) {
    const stream::StreamConfig config = stream_config();
    const ModelView model = view_of(*s.wimi);
    const core::WindowFeatureExtractor& extractor = s.pipeline->extractor();
    Spans& spans = sweep.spans;
    std::ifstream file(s.path, std::ios::binary);
    csi::TraceReader reader(file);
    csi::FrameRing ring(config.window);
    stream::WindowPlanner planner(config.window, config.hop);
    stream::DecisionSmoother smoother(config.smoothing);
    ml::OnlinePsiGate gate(s.psi, config.psi);
    csi::CsiSeries scratch;
    std::uint64_t mismatches = 0;
    std::size_t w = 0;
    while (std::optional<csi::CsiFrame> frame = reader.next()) {
        ring.push(*frame);
        const std::optional<stream::WindowPlan> plan = planner.on_frame();
        if (!plan) {
            continue;
        }
        const auto start = Clock::now();
        spans.time("csi.ring_window",
                   [&] { ring.window_into(plan->frame_count, scratch); });
        const std::vector<double> features = spans.time(
            "core.window_extract", [&] { return extractor.extract(scratch); });
        const std::vector<double> scaled =
            spans.time("ml.scale", [&] { return model.scaler.transform(features); });
        const int label = spans.time("ml.svm_predict",
                                     [&] { return model.svm.predict(scaled); });
        const bool gated = spans.time("ml.psi_gate", [&] {
            gate.add(features);
            return gate.ready() && gate.psi() > gate.config().threshold;
        });
        int stable = smoother.stable_label();
        if (!gated) {
            stable = spans.time("stream.smoother", [&] {
                return smoother.observe(label).stable_label;
            });
        }
        sweep.composed_us += us_between(start, Clock::now());
        ++sweep.ops;
        const bool same = w < s.reference.size() &&
                          label == s.reference[w].raw &&
                          stable == s.reference[w].stable &&
                          gated == s.reference[w].gated;
        mismatches += same ? 0 : 1;
        ++w;

        // Inside WindowFeatureExtractor::extract: the window transpose and
        // the feature call against the cached baseline transpose.
        std::optional<csi::CsiSoa> window_soa;
        spans.time("csi.soa_build", [&] { window_soa.emplace(scratch); });
        spans.time("core.feature", [&] {
            return core::extract_feature_vector(baseline_soa, *window_soa,
                                                model.pairs, model.subcarriers,
                                                model.feature);
        });
        decompose_feature(baseline_soa, csi::CsiSoa(scratch), model, spans);
        time_simd_off_on([&] { extractor.extract(scratch); }, sweep);
    }
    return mismatches + (w == s.reference.size() ? 0 : 1);
}

void run_traced(const Options& options, StreamSetup& s, Outcome& out,
                Report& report) {
    // The extractor's cached baseline transpose, rebuilt here for the
    // decomposition (its amplitude planes fill on first use, as there).
    const csi::CsiSoa baseline_soa(s.baseline);
    LayerSweep sweep;
    std::vector<double> push_us;    // pushes that emit no window
    std::vector<double> window_us;  // pushes that emit one
    double decode_us = 0.0;
    std::uint64_t decoded = 0;
    const auto deadline = after(Clock::now(), 0.6 * options.seconds);
    while (Clock::now() < deadline) {
        out.failed += real_pass(s, &decode_us, [&](double us, bool emitted) {
            ++decoded;
            (emitted ? window_us : push_us).push_back(us);
        });
        out.failed += composed_pass(s, baseline_soa, sweep);
        out.attempted += 2 * s.reference.size();
    }
    report_feature_layers(sweep, report);

    const double windows = static_cast<double>(sweep.ops);
    const auto per_window = [&](const char* span) {
        return sweep.spans.total_us(span) / windows;
    };
    const double push = mean(push_us);
    report.metric("csi.frame_decode_us",
                  decode_us / static_cast<double>(decoded), "us");
    report.metric("csi.ring_window_us", per_window("csi.ring_window"), "us");
    report.metric("core.window_extract_us", per_window("core.window_extract"),
                  "us");
    report.metric("ml.psi_gate_us", per_window("ml.psi_gate"), "us");
    report.metric("stream.push_us", push, "us");
    report.metric("stream.smoother_us", per_window("stream.smoother"), "us");
    report.metric("stream.windows", static_cast<double>(s.windows), "count");
    report.metric("stream.changes", static_cast<double>(s.changes), "count");
    report.metric("stream.drift_gated", static_cast<double>(s.drift_gated),
                  "count");

    report.metric("p99_us",
                  sliced_quantile("window_p99_us", window_us, 0.99,
                                  slices_in(0.3 * options.seconds,
                                            kTailSliceSeconds)),
                  "us");

    // A window push = the frame push plus the window's layers.
    const double real = mean(window_us);
    const double layers =
        push + per_window("csi.ring_window") +
        per_window("core.window_extract") + per_window("ml.scale") +
        per_window("ml.svm_predict") + per_window("ml.psi_gate") +
        per_window("stream.smoother");
    report.metric("unattributed_share", (real - layers) / real, "ratio");
    report.metric("trace_overhead_share",
                  (push + sweep.composed_us / windows - real) / real, "ratio");
    report.metric(
        "obs.overhead_share",
        obs_overhead_share([&] { real_pass(s, nullptr, [](double, bool) {}); },
                           0.25 * options.seconds),
        "ratio");
    report_allocs([&] { real_pass(s, nullptr, [](double, bool) {}); },
                  static_cast<double>(s.trace.packet_count()), report);
}

}  // namespace

Outcome run_stream(const Options& options, Report& report) {
    StreamSetup setup;
    Outcome out;
    prepare(options, setup, out);
    if (options.trace) {
        run_traced(options, setup, out, report);
    } else {
        run_end_to_end(options, setup, out, report);
    }
    std::filesystem::remove(setup.path);
    return out;
}

}  // namespace perfbench
