// The trained model: everything identification needs, detached from the
// training process (paper Fig. 5, "material database + SVM").
//
// core::Wimi trains one (Wimi::model()); the serving path persists it as
// a `wimi.model.v1` file (serve/model_io.hpp) and classifies with the
// loaded copy (serve/inference.hpp); the streaming pipeline classifies
// each window with it (stream/pipeline.hpp). All three call the one
// classify() below, so the "scale -> SVM -> class name" step exists once.
//
// The bundle deliberately captures the *receiver-side state baked into
// the classifier* — selected antenna pairs, selected subcarriers, the
// feature-extraction settings, and the scaler moments — because a model
// replayed against a receiver in a different calibration state is
// silently wrong, not just inaccurate.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/material_feature.hpp"
#include "csi/frame.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"

namespace wimi::core {

/// Result of identifying one unknown target.
struct IdentificationResult {
    int material_id = -1;
    std::string material_name;
};

/// Caps validate() puts on the persisted feature settings, far above any
/// value in use (wavelet levels 2–6, gamma wraps 0–2). A model file is
/// CRC-checked, not signed, so a loader must not trust these: 2^62
/// levels wraps the a-trous plane buffer's size, and INT_MAX wraps
/// overflows the gamma search's counter.
inline constexpr std::size_t kMaxWaveletLevels = 16;
inline constexpr int kMaxGammaWraps = 16;

/// A complete, self-contained, immutable classification model.
struct Model {
    /// Feature-extraction settings the model was trained with.
    FeatureConfig feature;
    /// Sensing antenna pairs, wrap-free reference pair first.
    std::vector<AntennaPair> pairs;
    /// Selected good subcarriers (calibration state).
    std::vector<std::size_t> subcarriers;
    /// Material names indexed by class id.
    std::vector<std::string> class_names;
    /// Fitted per-feature moments.
    ml::StandardScaler scaler;
    /// Trained one-vs-one ensemble.
    ml::MulticlassSvm svm;

    /// Feature-vector width the scaler and SVM expect.
    std::size_t feature_width() const { return scaler.means().size(); }

    /// Checks cross-component consistency (trained SVM, fitted scaler,
    /// matching widths, class ids covered by class_names, non-empty
    /// calibration) and the caps above. Throws wimi::Error on violation.
    void validate() const;

    /// Material name for a class id; throws wimi::Error when out of range.
    const std::string& class_name(int material_id) const;

    /// Extracts this model's feature vector for one measurement, using
    /// its own calibration (pairs, subcarriers, feature settings).
    std::vector<double> features(const csi::CsiSeries& baseline,
                                 const csi::CsiSeries& target) const;

    /// Classifies a pre-extracted (unscaled) feature vector: checks the
    /// width, scales, runs the SVM vote, names the class.
    IdentificationResult classify(std::span<const double> features) const;
};

}  // namespace wimi::core
