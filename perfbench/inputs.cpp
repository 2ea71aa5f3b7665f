#include "inputs.hpp"

#include <bit>
#include <iostream>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/streaming_feature.hpp"
#include "exec/parallel.hpp"
#include "stream/pipeline.hpp"

namespace perfbench {
namespace {

using namespace wimi;

constexpr std::uint64_t kTrainingSeed = 2019;  // the enrollment campaign
constexpr std::size_t kTrainingRepetitions = 20;  // paper: 20 per liquid
constexpr std::uint64_t kAgreementSeed = 77;      // the fixed agreement set
constexpr std::size_t kAgreementPerLiquid = 2;
constexpr double kPositionJitterM = 0.004;  // beaker repositioning std-dev

/// One measurement to capture, drawn serially so that the parallel
/// capture below is deterministic.
struct CaptureTask {
    int label = 0;
    rf::Vec2 offset;
    std::uint64_t session_seed = 0;
};

std::vector<CaptureTask> draw_tasks(std::uint64_t seed,
                                    std::size_t per_liquid) {
    Rng rng(seed);
    std::vector<CaptureTask> tasks;
    for (std::size_t label = 0; label < liquid_count(); ++label) {
        for (std::size_t rep = 0; rep < per_liquid; ++rep) {
            CaptureTask task;
            task.label = static_cast<int>(label);
            task.offset = {rng.gaussian(0.0, kPositionJitterM),
                           rng.gaussian(0.0, kPositionJitterM)};
            task.session_seed = rng.next_u64();
            tasks.push_back(task);
        }
    }
    return tasks;
}

std::vector<LabeledPair> capture(const sim::Scenario& scenario,
                                 const std::vector<CaptureTask>& tasks) {
    const Unobserved unobserved;
    return exec::parallel_map<LabeledPair>(tasks.size(), [&](std::size_t i) {
        const CaptureTask& task = tasks[i];
        return LabeledPair{
            scenario.capture_measurement(liquid(task.label),
                                         task.session_seed, task.offset),
            task.label};
    });
}

}  // namespace

sim::Scenario lab_scenario() { return sim::Scenario(sim::ScenarioConfig{}); }

std::size_t liquid_count() { return rf::all_liquids().size(); }

rf::Liquid liquid(int label) {
    return rf::all_liquids()[static_cast<std::size_t>(label)];
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
    return rng.next_u64();
}

TrainingSet capture_training_set(const sim::Scenario& scenario) {
    const Unobserved unobserved;
    TrainingSet set;
    set.reference = scenario.capture_reference(derive_seed(kTrainingSeed, 0));
    set.enrollment =
        capture(scenario, draw_tasks(kTrainingSeed, kTrainingRepetitions));
    return set;
}

core::Wimi train_wimi(const TrainingSet& training) {
    core::WimiConfig config;
    config.threads = 1;
    core::Wimi wimi(config);
    wimi.calibrate(training.reference);
    for (const LabeledPair& m : training.enrollment) {
        wimi.enroll(rf::liquid_name(liquid(m.label)), m.pair.baseline,
                    m.pair.target);
    }
    wimi.train();
    // Enrollment is liquid-major, so class ids are the labels.
    for (std::size_t label = 0; label < liquid_count(); ++label) {
        ensure(wimi.database().material_name(static_cast<int>(label)) ==
                   rf::liquid_name(liquid(static_cast<int>(label))),
               "train_wimi: class ids do not follow rf::all_liquids()");
    }
    return wimi;
}

std::vector<LabeledPair> capture_unseen(const sim::Scenario& scenario,
                                        std::uint64_t seed,
                                        std::size_t per_liquid) {
    return capture(scenario, draw_tasks(seed, per_liquid));
}

bool bit_identical(const std::vector<double>& a,
                   const std::vector<double>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

Agreement check_agreement(const core::Wimi& wimi,
                          const serve::InferenceEngine& engine,
                          const sim::Scenario& scenario) {
    Agreement out;
    const std::vector<LabeledPair> set =
        capture(scenario, draw_tasks(kAgreementSeed, kAgreementPerLiquid));
    for (const LabeledPair& m : set) {
        const csi::CsiSeries& baseline = m.pair.baseline;
        const csi::CsiSeries& target = m.pair.target;
        const int batch = wimi.identify(baseline, target).material_id;
        const int served = engine.predict(baseline, target).material_id;

        stream::StreamConfig config;
        config.window = target.packet_count();
        config.hop = 0;
        stream::StreamingPipeline pipeline(
            config, core::make_window_extractor(wimi, baseline),
            stream::make_classifier(wimi));
        std::optional<stream::WindowResult> window;
        for (const csi::CsiFrame& frame : target.frames) {
            if (auto result = pipeline.push(frame)) {
                window = std::move(result);
            }
        }
        const bool agree =
            window.has_value() && served == batch &&
            window->raw_label == batch &&
            bit_identical(window->features, wimi.features(baseline, target));
        ++out.checks;
        if (!agree) {
            ++out.disagreements;
        }
    }
    std::cout << "agreement captures=" << out.checks
              << " paths=Wimi::identify,InferenceEngine::predict,"
                 "StreamingPipeline(hop 0) disagreements="
              << out.disagreements << '\n';
    return out;
}

}  // namespace perfbench
