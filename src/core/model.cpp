#include "core/model.hpp"

#include <string>

#include "common/error.hpp"

namespace wimi::core {

void Model::validate() const {
    ensure(svm.trained(), "Model: SVM is not trained");
    ensure(scaler.fitted(), "Model: scaler is not fitted");
    ensure(!pairs.empty(), "Model: no antenna pairs");
    ensure(!subcarriers.empty(), "Model: no subcarriers");
    ensure(feature.denoise.wavelet.levels <= kMaxWaveletLevels,
           "Model: wavelet levels over the cap of " +
               std::to_string(kMaxWaveletLevels));
    ensure(feature.gamma.max_wraps >= 0 &&
               feature.gamma.max_wraps <= kMaxGammaWraps,
           "Model: gamma max_wraps outside [0, " +
               std::to_string(kMaxGammaWraps) + "]");
    const std::size_t width = feature_width();
    // One Omega per (subcarrier, pair) is the feature-vector contract of
    // extract_feature_vector; a model whose scaler width disagrees with
    // its calibration cannot have come from a consistent training run.
    ensure(width == subcarriers.size() * pairs.size(),
           "Model: scaler width does not match subcarriers x pairs");
    for (const auto& machine : svm.machines()) {
        ensure(machine.svm.width() == width,
               "Model: SVM feature width does not match scaler");
    }
    ensure(!class_names.empty(), "Model: no class names");
    for (const int label : svm.classes()) {
        ensure(label >= 0 &&
                   static_cast<std::size_t>(label) < class_names.size(),
               "Model: SVM class id outside class_names");
    }
}

const std::string& Model::class_name(int material_id) const {
    ensure(material_id >= 0 &&
               static_cast<std::size_t>(material_id) < class_names.size(),
           "Model: class id outside the model's class names");
    return class_names[static_cast<std::size_t>(material_id)];
}

std::vector<double> Model::features(const csi::CsiSeries& baseline,
                                    const csi::CsiSeries& target) const {
    return extract_feature_vector(baseline, target, pairs, subcarriers,
                                  feature);
}

IdentificationResult Model::classify(std::span<const double> features) const {
    ensure(scaler.fitted(), "Model::classify: model is not trained");
    ensure(features.size() == feature_width(),
           "Model::classify: feature width does not match the model");
    std::vector<double> scaled(features.size());
    scaler.transform_unchecked(features, scaled);
    IdentificationResult result;
    result.material_id = svm.predict(scaled);
    result.material_name = class_name(result.material_id);
    return result;
}

}  // namespace wimi::core
