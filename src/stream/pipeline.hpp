// The streaming windowed identification pipeline (DESIGN.md §13).
//
// Frames arrive one at a time (from a live capture, a TraceReader, or a
// TraceTailer following a growing file); the pipeline holds the newest
// `window` frames in a FrameRing, and on each WindowPlanner-scheduled
// emission materializes the window, extracts the material feature vector
// against the fixed baseline (WindowFeatureExtractor — bit-identical to
// the batch path), classifies it with the trained core::Model (the same
// Model::classify the batch and serving paths call), and folds the label
// through PSI drift gating and decision smoothing. Memory is O(window)
// regardless of stream length.
//
// Parity contract: with window == trace length and hop == 0 the single
// emitted window contains exactly the frames the batch pipeline sees, so
// `features` is bit-identical to Wimi::features(baseline, trace) and the
// raw label equals Wimi::identify's. Tests/test_stream_parity.cpp holds
// this at double granularity.
//
// Drift gating: when the recent feature population has drifted off the
// classifier's training distribution (OnlinePsiGate), per-window labels
// are extrapolation — the pipeline still reports the raw label but does
// NOT feed it to the smoother, so a drifting stream cannot fabricate
// "material changed" events. Windows suppressed this way are flagged
// `drift_gated`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/streaming_feature.hpp"
#include "csi/frame.hpp"
#include "csi/ring.hpp"
#include "ml/drift.hpp"
#include "stream/smoother.hpp"
#include "stream/window.hpp"

namespace wimi::core {
class Wimi;
}

namespace wimi::stream {

/// Same as wimi.model(): the pipeline's model argument for a trained
/// Wimi, which must outlive the pipeline. Throws unless wimi.trained().
const core::Model& make_classifier(const core::Wimi& wimi);

struct StreamConfig {
    std::size_t window = 64;  ///< frames per evaluation (ring capacity)
    std::size_t hop = 16;     ///< frames between evaluations; 0 = once
    SmootherConfig smoothing;
    /// PSI pool settings; the gate only exists when a PsiReference is
    /// handed to the pipeline.
    ml::OnlinePsiGate::Config psi;
};

/// Everything one evaluated window yields.
struct WindowResult {
    std::uint64_t window_index = 0;
    std::uint64_t first_frame = 0;  ///< global index of the oldest frame
    std::size_t frame_count = 0;
    double first_timestamp_s = 0.0;
    double last_timestamp_s = 0.0;
    std::vector<double> features;
    int raw_label = -1;
    std::string raw_name;
    int stable_label = -1;
    std::string stable_name;
    bool changed = false;  ///< stable label flipped at this window
    /// Streaming Eq. 7-style calibration residual [deg] of the reference
    /// antenna pair at the first selected subcarrier, over this window.
    double calib_residual_deg = 0.0;
    /// Mean PSI of the recent feature pool vs the training reference;
    /// NaN until the gate is present and warmed up.
    double psi = 0.0;
    bool psi_valid = false;
    bool drift_gated = false;  ///< label withheld from the smoother
};

class StreamingPipeline {
public:
    /// Classifies with `model`, which must outlive the pipeline.
    /// `psi_reference` enables drift gating when provided; pass
    /// std::nullopt to smooth every window unconditionally.
    StreamingPipeline(StreamConfig config,
                      core::WindowFeatureExtractor extractor,
                      const core::Model& model,
                      std::optional<ml::PsiReference> psi_reference =
                          std::nullopt);
    /// A temporary model would dangle.
    StreamingPipeline(StreamConfig, core::WindowFeatureExtractor,
                      core::Model&&,
                      std::optional<ml::PsiReference> = std::nullopt) = delete;

    /// Feeds one frame; returns the evaluated window when this arrival
    /// completes one per the window/hop schedule.
    std::optional<WindowResult> push(const csi::CsiFrame& frame);

    const StreamConfig& config() const { return config_; }
    std::uint64_t frames_consumed() const { return planner_.frames_seen(); }
    std::uint64_t windows_emitted() const {
        return planner_.windows_emitted();
    }
    std::uint64_t changes() const { return smoother_.changes(); }
    std::uint64_t drift_gated_windows() const { return drift_gated_; }

    /// Current stable label (-1 before the first smoothed window).
    int stable_label() const { return smoother_.stable_label(); }

    const csi::FrameRing& ring() const { return ring_; }
    const core::WindowFeatureExtractor& extractor() const {
        return extractor_;
    }

    /// Forgets all stream state (ring, schedule, smoother, PSI pool);
    /// the baseline, model, and config survive.
    void reset();

private:
    WindowResult evaluate(const WindowPlan& plan);

    StreamConfig config_;
    core::WindowFeatureExtractor extractor_;
    const core::Model* model_;
    csi::FrameRing ring_;
    WindowPlanner planner_;
    DecisionSmoother smoother_;
    std::optional<ml::OnlinePsiGate> gate_;
    core::RunningPhaseCalibration calib_;
    csi::CsiSeries scratch_window_;  ///< reused across evaluations
    std::uint64_t drift_gated_ = 0;
};

}  // namespace wimi::stream
