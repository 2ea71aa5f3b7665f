// The WiMi system facade (paper Fig. 5).
//
// Ties together the full workflow:
//   data collection (baseline + target CSI)  ->  CSI pre-processing
//   (phase calibration, good-subcarrier selection, amplitude denoising)
//   ->  material feature extraction  ->  material database + SVM
//   classification.
//
// Wimi is the trainer: train() fills one immutable core::Model
// (core/model.hpp), and identify() classifies through that model, as the
// serving and streaming paths do.
//
// Usage:
//   Wimi wimi(config);
//   wimi.calibrate(some_baseline_series);               // pick subcarriers
//   wimi.enroll("Milk", baseline, target);              // repeat per sample
//   wimi.train();
//   auto result = wimi.identify(baseline, target);
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/material_database.hpp"
#include "core/material_feature.hpp"
#include "core/model.hpp"
#include "csi/frame.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace wimi::core {

/// Full system configuration.
struct WimiConfig {
    /// Antenna pairs used for sensing, closest (wrap-free reference) pair
    /// first; wider pairs carry larger-SNR amplitude effects and get their
    /// phase wrap count recovered from the reference (Sec. III-E/F).
    std::vector<AntennaPair> pairs = {{0, 1}, {1, 2}, {0, 2}};
    /// When true, calibrate() replaces `pairs` with the most stable pair.
    bool auto_select_pair = false;
    /// Explicit subcarrier indices; empty means calibrate() selects
    /// `good_subcarrier_count` low-variance subcarriers (Eq. 7).
    std::vector<std::size_t> subcarriers;
    std::size_t good_subcarrier_count = 4;  ///< the paper's P
    FeatureConfig feature;
    ml::SvmConfig svm;
    /// Fan-out width for training the one-vs-one SVM machines; 0 = exec
    /// pool default / WIMI_THREADS, 1 = serial. Propagated into
    /// svm.threads when that leaves its own width unset. Training
    /// results are identical at every width.
    std::size_t threads = 0;
};

/// End-to-end material identification system.
class Wimi {
public:
    explicit Wimi(WimiConfig config = {});

    /// Deployment calibration: selects good subcarriers (and optionally the
    /// best antenna pair) from a reference capture. Must be called before
    /// enroll()/identify() unless the config pins subcarriers explicitly.
    void calibrate(const csi::CsiSeries& reference);

    /// True once subcarriers (and pairs) are fixed.
    bool calibrated() const { return !subcarriers_.empty(); }

    /// Extracts the feature vector for one measurement (exposed so tests
    /// and benches can inspect features directly).
    std::vector<double> features(const csi::CsiSeries& baseline,
                                 const csi::CsiSeries& target) const;

    /// Adds one labeled enrollment measurement; returns the material id.
    int enroll(std::string_view material_name,
               const csi::CsiSeries& baseline, const csi::CsiSeries& target);

    /// Adds a pre-extracted feature vector (for database import).
    void enroll_features(std::string_view material_name,
                         std::span<const double> features);

    /// Trains the classifier on the database. Requires >= 2 materials.
    void train();

    /// True once train() has succeeded.
    bool trained() const { return trained_; }

    /// The trained model. Throws wimi::Error unless trained(). The
    /// reference stays valid (and sees the new state) across retraining,
    /// for as long as this Wimi lives.
    const Model& model() const;

    /// Identifies one unknown measurement: features() with the current
    /// calibration, then model().classify. Requires train() first.
    IdentificationResult identify(const csi::CsiSeries& baseline,
                                  const csi::CsiSeries& target) const;

    const MaterialDatabase& database() const { return database_; }
    MaterialDatabase& database() { return database_; }
    const WimiConfig& config() const { return config_; }

    /// Subcarriers in use (after calibrate() or from config).
    const std::vector<std::size_t>& subcarriers() const {
        return subcarriers_;
    }

    /// Antenna pairs in use.
    const std::vector<AntennaPair>& pairs() const { return pairs_; }

    /// The model's fitted scaler and trained SVM ensemble. Meaningful
    /// only once trained() is true.
    const ml::StandardScaler& scaler() const { return model_.scaler; }
    const ml::MulticlassSvm& svm() const { return model_.svm; }

private:
    WimiConfig config_;
    std::vector<AntennaPair> pairs_;
    std::vector<std::size_t> subcarriers_;
    MaterialDatabase database_;
    Model model_;
    bool trained_ = false;
};

}  // namespace wimi::core
