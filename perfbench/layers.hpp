// Per-layer timing of one identification, shared by the traced runs.
//
// The traced run opens a span (Spans, harness.hpp) around each public
// call the benchmark makes into a layer. An identification is re-composed
// from those calls — CsiSoa, core::extract_feature_vector,
// StandardScaler::transform, MulticlassSvm::predict — and the feature
// call is decomposed further into the calls it is made of, so the layer
// times add up to the end-to-end operation and what they miss shows as
// unattributed_share.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/material_feature.hpp"
#include "core/wimi.hpp"
#include "csi/soa.hpp"
#include "harness.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "serve/model.hpp"

namespace perfbench {

/// The trained state one identification reads.
struct ModelView {
    const std::vector<wimi::core::AntennaPair>& pairs;
    const std::vector<std::size_t>& subcarriers;
    const wimi::core::FeatureConfig& feature;
    const wimi::ml::StandardScaler& scaler;
    const wimi::ml::MulticlassSvm& svm;
};
ModelView view_of(const wimi::core::Wimi& wimi);
ModelView view_of(const wimi::serve::TrainedModel& model);

/// Re-runs the inner work of core::extract_feature_vector(baseline,
/// target, ...) through the public calls it is made of and charges each
/// to its span: "core.inlier_mask" (core::inlier_packet_mask),
/// "simd.complex_ratio" (simd::complex_ratio) and "dsp.wavelet"
/// (dsp::wavelet_correlation_denoise). It mirrors the stable-ratio
/// estimate of src/core/material_feature.cpp per (subcarrier, pair),
/// target before baseline, so the spans see the inputs the real call
/// sees. Pass SoAs in the state the real call finds them (lazily built
/// amplitude planes are charged to the first mask call that needs them).
void decompose_feature(const wimi::csi::CsiSoa& baseline,
                       const wimi::csi::CsiSoa& target,
                       const ModelView& model, Spans& spans);

/// Layer spans accumulated over `ops` operations.
struct LayerSweep {
    Spans spans;
    std::uint64_t ops = 0;
    double composed_us = 0.0;  ///< whole composed operations
    double simd_off_us = 0.0;  ///< feature extraction, scalar kernels
    double simd_on_us = 0.0;   ///< the same, kernels as configured
};

/// Times fn() with the SIMD kernels off, then as configured.
void time_simd_off_on(const std::function<void()>& fn, LayerSweep& sweep);

/// One identification of (baseline, target) as spanned layer calls
/// ("csi.soa_build", "core.feature", "ml.scale", "ml.svm_predict"), then
/// the inner layers of its feature call and its feature extraction with
/// SIMD off and on. Returns the composed label.
int sweep_identification(const wimi::csi::CsiSeries& baseline,
                         const wimi::csi::CsiSeries& target,
                         const ModelView& model, LayerSweep& sweep);

/// Reports the feature-path layer metrics per operation: csi.soa_build_us,
/// core.feature_us, core.inlier_mask_us, core.feature_self_us,
/// dsp.wavelet_us, dsp.wavelet_calls_per_op, simd.complex_ratio_us,
/// simd.feature_speedup, ml.scale_us and ml.svm_predict_us.
void report_feature_layers(const LayerSweep& sweep, Report& report);

}  // namespace perfbench
