// Experiment harness: dataset generation + cross-validated identification.
//
// Reproduces the paper's evaluation procedure: for each liquid, repeat the
// baseline/target measurement `repetitions` times (the paper uses 20),
// extract feature vectors with a calibrated WiMi instance, and report the
// stratified cross-validated confusion matrix of the classifier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/wimi.hpp"
#include "ml/metrics.hpp"
#include "rf/material.hpp"
#include "serve/inference.hpp"
#include "serve/model.hpp"
#include "sim/scenario.hpp"

namespace wimi::sim {

/// Classifier the cross-validation folds train (evaluate_dataset).
enum class ClassifierKind {
    kSvm = 0,  ///< the paper's choice
    kKnn = 1,  ///< baseline for comparison, k = kKnnNeighbors
};

/// Neighbour count of the kNN baseline.
inline constexpr std::size_t kKnnNeighbors = 5;

/// Full configuration of one identification experiment.
struct ExperimentConfig {
    ScenarioConfig scenario;
    std::vector<rf::Liquid> liquids{rf::all_liquids().begin(),
                                    rf::all_liquids().end()};
    std::size_t repetitions = 20;  ///< measurements per liquid (paper: 20)
    core::WimiConfig wimi;
    ClassifierKind classifier = ClassifierKind::kSvm;
    std::size_t cv_folds = 5;
    /// Std-dev of the beaker repositioning between repetitions [m].
    double position_jitter_m = 0.004;
    std::uint64_t seed = 7;
    /// Fan-out width for capture simulation and cross-validation folds
    /// (0 = exec pool default / WIMI_THREADS, 1 = serial legacy path).
    /// Results are bit-identical at every width.
    std::size_t threads = 0;
    /// When non-empty, build_feature_dataset loads this `wimi.psi_ref.v1`
    /// reference and publishes the dataset's population-stability index
    /// as the quality.feature.psi gauge (drift vs the stored run).
    std::string psi_reference_path;
    /// When non-empty, run_identification_experiment appends a
    /// `wimi.run.v1` manifest here (JSON lines). WIMI_RUN_LEDGER
    /// overrides; empty + no env var = no ledger write.
    std::string run_ledger_path;
};

/// Outcome of one identification experiment.
struct ExperimentResult {
    ml::ConfusionMatrix confusion;
    double accuracy = 0.0;      ///< overall accuracy
    double mean_recall = 0.0;   ///< the paper's "average accuracy"
    std::vector<std::string> class_names;
};

/// Stable serialization of every result-affecting field of `config`
/// (threads excluded: results are width-invariant). Its CRC-32 is the
/// `config_digest` in the run manifest — equal digests mean two ledger
/// entries are directly comparable.
std::string serialize_config(const ExperimentConfig& config);

/// A calibrated WiMi instance for the experiment's scenario: captures a
/// reference series and runs Wimi::calibrate on it.
core::Wimi make_calibrated_wimi(const ExperimentConfig& config);

/// Captures every (liquid x repetition) measurement and extracts feature
/// vectors with `wimi`. Labels are indices into config.liquids.
ml::Dataset build_feature_dataset(const ExperimentConfig& config,
                                  const core::Wimi& wimi);

/// End-to-end: calibrate, build dataset, cross-validate the classifier.
ExperimentResult run_identification_experiment(
    const ExperimentConfig& config);

/// Cross-validates `data` with the experiment's classifier settings and
/// returns the pooled confusion matrix (exposed for benches that build
/// custom datasets).
ExperimentResult evaluate_dataset(const ml::Dataset& data,
                                  const ExperimentConfig& config,
                                  std::vector<std::string> class_names);

/// Trains a deployable model on the experiment's full enrollment set (no
/// cross-validation): calibrate, capture every (liquid x repetition)
/// measurement, fit the scaler + one-vs-one SVM on all rows, and
/// snapshot the result. Requires the SVM classifier. This is the
/// training half of "train once, infer many"; persist the returned model
/// with serve::save_model_file.
core::Model train_experiment_model(const ExperimentConfig& config);

/// Per-measurement outcome of classifying one experiment's capture
/// schedule with a loaded model, in schedule order. `predicted[i]` is
/// bit-identical at every thread width (exec determinism contract), so
/// two processes running the same config against the same model must
/// produce element-wise equal vectors — the cross-process golden check.
struct ModelPredictions {
    std::vector<int> truth;
    std::vector<int> predicted;
    std::vector<std::string> class_names;
};

/// Captures one measurement per (liquid x repetition) with `config.seed`
/// (use a seed different from training so the measurements are unseen)
/// and classifies each through engine.predict_batch at `config.threads`
/// width. The model's class names must match the experiment's liquids
/// exactly (same ids), else wimi::Error.
ModelPredictions predict_experiment(const serve::InferenceEngine& engine,
                                    const ExperimentConfig& config);

}  // namespace wimi::sim
