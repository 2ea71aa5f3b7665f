// Shared helpers for core-pipeline tests: synthetic CSI series with exact,
// known phase/amplitude structure, small simulated captures, and a tiny
// trained model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "csi/frame.hpp"
#include "csi/subcarrier.hpp"
#include "ml/dataset.hpp"

namespace wimi::testutil {

/// Builds a series of `packets` frames where antenna a at subcarrier k has
/// amplitude `amps[a]` and phase `phases[a]` plus optional white Gaussian
/// perturbations (same across subcarriers).
inline csi::CsiSeries synthetic_series(std::vector<double> amps,
                                       std::vector<double> phases,
                                       std::size_t packets,
                                       double amp_noise = 0.0,
                                       double phase_noise = 0.0,
                                       std::uint64_t seed = 1,
                                       std::size_t subcarriers = 30) {
    csi::CsiSeries series;
    Rng rng(seed);
    for (std::size_t p = 0; p < packets; ++p) {
        csi::CsiFrame frame(amps.size(), subcarriers);
        for (std::size_t a = 0; a < amps.size(); ++a) {
            const double amp =
                amps[a] * (1.0 + rng.gaussian(0.0, amp_noise));
            const double phase =
                phases[a] + rng.gaussian(0.0, phase_noise);
            for (std::size_t k = 0; k < subcarriers; ++k) {
                frame.at(a, k) = std::polar(amp, phase);
            }
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

/// A trained two-class model ("A", "B") over pairs x subcarriers
/// features, for tests of streaming mechanics rather than labels.
inline core::Model tiny_model(std::vector<core::AntennaPair> pairs,
                              std::vector<std::size_t> subcarriers) {
    const std::size_t width = pairs.size() * subcarriers.size();
    ml::Dataset data(width);
    data.add(std::vector<double>(width, 0.0), 0);
    data.add(std::vector<double>(width, 1.0), 1);
    core::Model model;
    model.pairs = std::move(pairs);
    model.subcarriers = std::move(subcarriers);
    model.class_names = {"A", "B"};
    model.scaler.fit(data);
    model.svm.train(model.scaler.transform(data));
    model.validate();
    return model;
}

}  // namespace wimi::testutil
