#include "layers.hpp"

#include <algorithm>
#include <optional>

#include "core/amplitude_denoising.hpp"
#include "dsp/wavelet_denoise.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

namespace perfbench {
namespace {

using namespace wimi;

/// One stable-ratio estimate (one capture, pair and subcarrier) through
/// its public calls; see decompose_feature.
void ratio_layers(const csi::CsiSoa& soa, core::AntennaPair pair,
                  std::size_t subcarrier, const core::FeatureConfig& config,
                  Spans& spans) {
    const std::size_t packets = soa.packet_count();
    std::vector<bool> mask(packets, true);
    if (config.use_amplitude_denoising) {
        mask = spans.time("core.inlier_mask", [&] {
            return core::inlier_packet_mask(soa, pair, subcarrier,
                                            config.denoise.outlier_k_sigma);
        });
    }
    const auto re1p = soa.real_plane(pair.first, subcarrier);
    const auto im1p = soa.imag_plane(pair.first, subcarrier);
    const auto re2p = soa.real_plane(pair.second, subcarrier);
    const auto im2p = soa.imag_plane(pair.second, subcarrier);
    std::vector<double> re1, im1, re2, im2;
    const auto gather = [&](bool masked) {
        for (std::size_t m = 0; m < packets; ++m) {
            if ((!masked || mask[m]) && (re2p[m] != 0.0 || im2p[m] != 0.0)) {
                re1.push_back(re1p[m]);
                im1.push_back(im1p[m]);
                re2.push_back(re2p[m]);
                im2.push_back(im2p[m]);
            }
        }
    };
    gather(true);
    if (re1.empty()) {
        gather(false);  // every packet flagged: the library falls back too
    }
    std::vector<double> ratio_re(re1.size());
    std::vector<double> ratio_im(re1.size());
    spans.time("simd.complex_ratio", [&] {
        simd::complex_ratio(re1, im1, re2, im2, ratio_re, ratio_im);
    });
    if (config.use_amplitude_denoising && config.denoise.remove_impulses &&
        ratio_re.size() >= 8) {
        for (const std::vector<double>* component : {&ratio_re, &ratio_im}) {
            spans.time("dsp.wavelet", [&] {
                return dsp::wavelet_correlation_denoise(
                    *component, config.denoise.wavelet);
            });
        }
    }
}

}  // namespace

ModelView view_of(const core::Wimi& wimi) {
    return {wimi.pairs(), wimi.subcarriers(), wimi.config().feature,
            wimi.scaler(), wimi.svm()};
}

ModelView view_of(const serve::TrainedModel& model) {
    return {model.pairs, model.subcarriers, model.feature, model.scaler,
            model.svm};
}

void decompose_feature(const csi::CsiSoa& baseline,
                       const csi::CsiSoa& target, const ModelView& model,
                       Spans& spans) {
    for (const std::size_t sc : model.subcarriers) {
        for (const core::AntennaPair pair : model.pairs) {
            ratio_layers(target, pair, sc, model.feature, spans);
            ratio_layers(baseline, pair, sc, model.feature, spans);
        }
    }
}

void time_simd_off_on(const std::function<void()>& fn, LayerSweep& sweep) {
    const bool configured = simd::enabled();
    simd::set_enabled(false);
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    simd::set_enabled(configured);
    fn();
    const auto t2 = Clock::now();
    sweep.simd_off_us += us_between(t0, t1);
    sweep.simd_on_us += us_between(t1, t2);
}

int sweep_identification(const csi::CsiSeries& baseline,
                         const csi::CsiSeries& target, const ModelView& model,
                         LayerSweep& sweep) {
    Spans& spans = sweep.spans;
    const auto start = Clock::now();
    std::optional<csi::CsiSoa> baseline_soa;
    std::optional<csi::CsiSoa> target_soa;
    spans.time("csi.soa_build", [&] {
        baseline_soa.emplace(baseline);
        target_soa.emplace(target);
    });
    const std::vector<double> features = spans.time("core.feature", [&] {
        return core::extract_feature_vector(*baseline_soa, *target_soa,
                                            model.pairs, model.subcarriers,
                                            model.feature);
    });
    const std::vector<double> scaled =
        spans.time("ml.scale", [&] { return model.scaler.transform(features); });
    const int label =
        spans.time("ml.svm_predict", [&] { return model.svm.predict(scaled); });
    sweep.composed_us += us_between(start, Clock::now());
    ++sweep.ops;

    decompose_feature(csi::CsiSoa(baseline), csi::CsiSoa(target), model,
                      spans);
    time_simd_off_on(
        [&] {
            core::extract_feature_vector(baseline, target, model.pairs,
                                         model.subcarriers, model.feature);
        },
        sweep);
    return label;
}

void report_feature_layers(const LayerSweep& sweep, Report& report) {
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, sweep.ops));
    const auto per_op = [&](const char* span) {
        return sweep.spans.total_us(span) / ops;
    };
    const double feature = per_op("core.feature");
    const double mask = per_op("core.inlier_mask");
    const double ratio = per_op("simd.complex_ratio");
    const double wavelet = per_op("dsp.wavelet");
    report.metric("csi.soa_build_us", per_op("csi.soa_build"), "us");
    report.metric("core.feature_us", feature, "us");
    report.metric("core.inlier_mask_us", mask, "us");
    report.metric("core.feature_self_us", feature - mask - ratio - wavelet,
                  "us");
    report.metric("dsp.wavelet_us", wavelet, "us");
    report.metric("dsp.wavelet_calls_per_op",
                  static_cast<double>(sweep.spans.calls("dsp.wavelet")) / ops,
                  "count");
    report.metric("simd.complex_ratio_us", ratio, "us");
    report.metric("simd.feature_speedup",
                  sweep.simd_on_us > 0.0
                      ? sweep.simd_off_us / sweep.simd_on_us
                      : 0.0,
                  "ratio");
    report.metric("ml.scale_us", per_op("ml.scale"), "us");
    report.metric("ml.svm_predict_us", per_op("ml.svm_predict"), "us");
}

}  // namespace perfbench
