#include "stream/pipeline.hpp"

#include <chrono>
#include <cmath>

#include "common/math.hpp"
#include "core/wimi.hpp"
#include "obs/obs.hpp"

namespace wimi::stream {

const core::Model& make_classifier(const core::Wimi& wimi) {
    return wimi.model();
}

StreamingPipeline::StreamingPipeline(
    StreamConfig config, core::WindowFeatureExtractor extractor,
    const core::Model& model, std::optional<ml::PsiReference> psi_reference)
    : config_(config),
      extractor_(std::move(extractor)),
      model_(&model),
      ring_(config.window),
      planner_(config.window, config.hop),
      smoother_(config.smoothing) {
    if (psi_reference.has_value()) {
        gate_.emplace(std::move(*psi_reference), config_.psi);
    }
}

std::optional<WindowResult> StreamingPipeline::push(
    const csi::CsiFrame& frame) {
    ring_.push(frame);
    WIMI_OBS_COUNT("stream.frames", 1);
    const std::optional<WindowPlan> plan = planner_.on_frame();
    if (!plan.has_value()) {
        return std::nullopt;
    }
    return evaluate(*plan);
}

WindowResult StreamingPipeline::evaluate(const WindowPlan& plan) {
    WIMI_TRACE_SPAN("stream.window");
    const auto started = std::chrono::steady_clock::now();

    ring_.window_into(plan.frame_count, scratch_window_);

    WindowResult result;
    result.window_index = plan.window_index;
    result.first_frame = plan.first_frame;
    result.frame_count = plan.frame_count;
    result.first_timestamp_s = scratch_window_.frames.front().timestamp_s;
    result.last_timestamp_s = scratch_window_.frames.back().timestamp_s;

    result.features = extractor_.extract(scratch_window_);

    core::IdentificationResult raw = model_->classify(result.features);
    result.raw_label = raw.material_id;
    result.raw_name = std::move(raw.material_name);

    // Streaming calibration quality: circular stddev of the reference
    // pair's phase-difference stream at the first selected subcarrier.
    const core::AntennaPair ref_pair = extractor_.pairs().front();
    const std::size_t ref_sc = extractor_.subcarriers().front();
    calib_.reset();
    for (const csi::CsiFrame& f : scratch_window_.frames) {
        calib_.add(wrap_to_pi(f.phase(ref_pair.first, ref_sc) -
                              f.phase(ref_pair.second, ref_sc)));
    }
    result.calib_residual_deg = rad_to_deg(calib_.stddev());

    if (gate_.has_value()) {
        gate_->add(result.features);
        if (gate_->ready()) {
            result.psi = gate_->psi();
            result.psi_valid = true;
            result.drift_gated = result.psi > gate_->config().threshold;
        }
    }

    if (result.drift_gated) {
        ++drift_gated_;
        WIMI_OBS_COUNT("stream.drift.gated", 1);
        // Withhold the label from the smoother: keep reporting the last
        // trusted stable label, never emit a change off extrapolation.
        result.stable_label = smoother_.stable_label();
        result.changed = false;
    } else {
        const SmoothedDecision smoothed = smoother_.observe(result.raw_label);
        result.stable_label = smoothed.stable_label;
        result.changed = smoothed.changed;
    }
    if (result.stable_label >= 0) {
        result.stable_name = model_->class_name(result.stable_label);
    }

    WIMI_OBS_COUNT("stream.windows", 1);
    if (result.changed) {
        WIMI_OBS_COUNT("stream.changes", 1);
        WIMI_OBS_LOG_INFO(
            "stream.pipeline", "stable label changed",
            ::wimi::obs::kv("window", result.window_index),
            ::wimi::obs::kv("label", result.stable_label),
            ::wimi::obs::kv("raw", result.raw_name));
    }
    WIMI_OBS_GAUGE_SET("stream.ring.fill", static_cast<double>(ring_.size()));
    if (result.psi_valid) {
        WIMI_OBS_GAUGE_SET("stream.psi", result.psi);
    }
    if (WIMI_OBS_ENABLED()) {
        const double wall_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - started)
                .count();
        WIMI_OBS_HISTOGRAM("stream.window.wall_us", wall_us);
    }
    return result;
}

void StreamingPipeline::reset() {
    ring_.clear();
    planner_.reset();
    smoother_.reset();
    if (gate_.has_value()) {
        gate_->reset();
    }
    calib_.reset();
    drift_gated_ = 0;
}

}  // namespace wimi::stream
