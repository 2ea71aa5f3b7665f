// Input generation and system set-up shared by the three workloads.
//
// Every input the system sees is generated with src/sim: the enrollment
// campaign the model is trained on (one fixed campaign — the deployment
// under test, identical in every run) and the unseen captures each run
// draws from its --seed. Set-up proper, what setup_s times, is
// train_wimi(): calibration, enrollment and SVM training on captures
// that already exist.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wimi.hpp"
#include "obs/obs.hpp"
#include "rf/material.hpp"
#include "serve/inference.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// One baseline/target capture pair and its true liquid (class id).
struct LabeledPair {
    wimi::sim::MeasurementPair pair;
    int label = 0;
};

/// The pre-captured enrollment campaign: a calibration reference plus
/// the paper's 20 measurements of every liquid.
struct TrainingSet {
    wimi::csi::CsiSeries reference;
    std::vector<LabeledPair> enrollment;
};

/// Turns observability off for its lifetime; input generation runs under
/// one. The simulator's capture probe (csi::record_signal_quality) throws
/// on a frame with zero amplitude on subcarrier 0, which a long simulated
/// capture now and then contains, and generating inputs is not what the
/// benchmark measures.
class Unobserved {
public:
    Unobserved() : was_enabled_(wimi::obs::enabled()) {
        wimi::obs::set_enabled(false);
    }
    ~Unobserved() { wimi::obs::set_enabled(was_enabled_); }
    Unobserved(const Unobserved&) = delete;
    Unobserved& operator=(const Unobserved&) = delete;

private:
    bool was_enabled_;
};

/// The lab scenario every workload runs in (paper defaults: 2 m link,
/// 20 packets per capture).
wimi::sim::Scenario lab_scenario();

/// Class ids are indices into rf::all_liquids() (all ten liquids).
std::size_t liquid_count();
wimi::rf::Liquid liquid(int label);

/// An independent seed for input stream `stream` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

TrainingSet capture_training_set(const wimi::sim::Scenario& scenario);

/// Set-up: calibrate, enroll every measurement, train the SVM (serially,
/// so set-up time does not depend on the thread pool).
wimi::core::Wimi train_wimi(const TrainingSet& training);

/// `per_liquid` unseen measurements of every liquid, each in its own
/// capture session (its own baseline) with imperfect beaker
/// repositioning, drawn from `seed`. Ordered liquid-major.
std::vector<LabeledPair> capture_unseen(const wimi::sim::Scenario& scenario,
                                        std::uint64_t seed,
                                        std::size_t per_liquid);

/// Bit-pattern equality of two feature vectors.
bool bit_identical(const std::vector<double>& a, const std::vector<double>& b);

/// Cross-path agreement, checked before timing. One fixed capture set is
/// classified by Wimi::identify, by InferenceEngine::predict on the same
/// trained model, and by a hop-0 full-window StreamingPipeline whose
/// window features must be bit-identical to Wimi::features.
struct Agreement {
    std::uint64_t checks = 0;
    std::uint64_t disagreements = 0;
};
Agreement check_agreement(const wimi::core::Wimi& wimi,
                          const wimi::serve::InferenceEngine& engine,
                          const wimi::sim::Scenario& scenario);

}  // namespace perfbench
