#include "core/wimi.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "core/antenna_selection.hpp"
#include "core/subcarrier_selection.hpp"
#include "obs/obs.hpp"

namespace wimi::core {
namespace {

/// Resolves the facade-level threads knob into the nested SVM config
/// before any member is built from it.
WimiConfig with_thread_plumbing(WimiConfig config) {
    if (config.svm.threads == 0) {
        config.svm.threads = config.threads;
    }
    return config;
}

}  // namespace

Wimi::Wimi(WimiConfig config)
    : config_(with_thread_plumbing(std::move(config))),
      pairs_(config_.pairs),
      subcarriers_(config_.subcarriers) {
    ensure(!pairs_.empty() || config_.auto_select_pair,
           "Wimi: need antenna pairs or auto_select_pair");
    ensure(config_.good_subcarrier_count >= 1,
           "Wimi: good_subcarrier_count must be >= 1");
}

void Wimi::calibrate(const csi::CsiSeries& reference) {
    ensure(!reference.empty(), "Wimi::calibrate: empty reference capture");
    WIMI_TRACE_SPAN("wimi.calibrate");
    if (config_.auto_select_pair) {
        pairs_ = {select_best_pair(reference)};
    }
    ensure(!pairs_.empty(), "Wimi::calibrate: no antenna pairs");
    if (config_.subcarriers.empty()) {
        // Select low-variance subcarriers using the first sensing pair
        // (Eq. 7); the same subcarriers are then used for every pair so
        // feature vectors stay aligned.
        subcarriers_ = select_good_subcarriers(
            reference, pairs_.front(), config_.good_subcarrier_count);
    } else {
        subcarriers_ = config_.subcarriers;
    }
    WIMI_OBS_GAUGE_SET("calib.subcarriers_selected",
                       static_cast<double>(subcarriers_.size()));
    if (WIMI_OBS_ENABLED()) {
        // Calibration residual over the subcarriers actually in use: the
        // mean RMS Eq. 7 deviation (degrees) on the first sensing pair.
        // This is the Fig. 12 sanity figure as one gated number.
        double rms_sum = 0.0;
        for (const std::size_t sc : subcarriers_) {
            rms_sum += std::sqrt(
                phase_difference_variance(reference, pairs_.front(), sc));
        }
        const double residual_deg = rad_to_deg(
            rms_sum / static_cast<double>(subcarriers_.size()));
        WIMI_OBS_GAUGE_SET("quality.calib.residual_deg", residual_deg);
        WIMI_OBS_LOG_INFO("core.wimi", "calibration complete",
                          obs::kv("subcarriers", subcarriers_.size()),
                          obs::kv("pairs", pairs_.size()),
                          obs::kv("residual_deg", residual_deg));
        if (subcarriers_.size() <
            static_cast<std::size_t>(config_.good_subcarrier_count)) {
            WIMI_OBS_LOG_WARN(
                "core.wimi", "calibration selected fewer subcarriers than requested",
                obs::kv("selected", subcarriers_.size()),
                obs::kv("requested", config_.good_subcarrier_count));
        }
    }
}

std::vector<double> Wimi::features(const csi::CsiSeries& baseline,
                                   const csi::CsiSeries& target) const {
    ensure(calibrated(),
           "Wimi::features: call calibrate() first (or pin subcarriers in "
           "the config)");
    return extract_feature_vector(baseline, target, pairs_, subcarriers_,
                                  config_.feature);
}

int Wimi::enroll(std::string_view material_name,
                 const csi::CsiSeries& baseline,
                 const csi::CsiSeries& target) {
    WIMI_TRACE_SPAN("wimi.enroll");
    WIMI_OBS_COUNT("wimi.enrollments", 1);
    const int id = database_.register_material(material_name);
    database_.add_sample(id, features(baseline, target));
    trained_ = false;
    return id;
}

void Wimi::enroll_features(std::string_view material_name,
                           std::span<const double> features) {
    const int id = database_.register_material(material_name);
    database_.add_sample(id, features);
    trained_ = false;
}

void Wimi::train() {
    ensure(database_.material_count() >= 2,
           "Wimi::train: need at least two enrolled materials");
    WIMI_TRACE_SPAN("wimi.train");
    ensure(database_.sample_count() >= database_.material_count(),
           "Wimi::train: need at least one sample per material");
    Model next;
    next.feature = config_.feature;
    next.pairs = pairs_;
    next.subcarriers = subcarriers_;
    const auto names = database_.names();
    next.class_names.assign(names.begin(), names.end());
    next.scaler.fit(database_.dataset());
    next.svm = ml::MulticlassSvm(config_.svm);
    next.svm.train(next.scaler.transform(database_.dataset()));
    // Assigned in place, so a reference from model() sees the new state.
    model_ = std::move(next);
    trained_ = true;
}

const Model& Wimi::model() const {
    ensure(trained_, "Wimi::model: train() not called");
    return model_;
}

IdentificationResult Wimi::identify(const csi::CsiSeries& baseline,
                                    const csi::CsiSeries& target) const {
    WIMI_TRACE_SPAN("wimi.identify");
    const std::vector<double> extracted = features(baseline, target);
    const Model& trained = model();
    WIMI_TRACE_SPAN("wimi.classify");
    WIMI_OBS_COUNT("wimi.identifications", 1);
    return trained.classify(extracted);
}

}  // namespace wimi::core
