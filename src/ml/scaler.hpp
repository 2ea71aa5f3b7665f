// Feature standardization (z-score scaling).
//
// SVMs are scale-sensitive; WiMi's feature vector mixes the material
// feature Omega (order 0.1) with raw phase differences (order 1), so the
// pipeline standardizes features on the training set before classification.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace wimi::ml {

/// Per-feature z-score scaler: x' = (x - mean) / std.
class StandardScaler {
public:
    /// Learns per-feature means and standard deviations from `data`.
    /// Rejects non-finite feature values (wimi::Error). Constant features
    /// get unit scale and the exact constant as their mean, so transform
    /// of the constant is exactly 0 — a feature whose spread is pure
    /// floating-point rounding (stddev below ~1e-12 of its magnitude) is
    /// treated the same way instead of dividing by the rounding noise and
    /// feeding amplified garbage to the classifier.
    void fit(const Dataset& data);

    /// Scales one feature vector. Requires fit() first and matching width.
    std::vector<double> transform(std::span<const double> features) const;

    /// Scales one feature vector into `out` (same size as `features`,
    /// which may alias it) — the allocation-free form for predict loops
    /// that scale many samples against one fitted scaler.
    void transform(std::span<const double> features,
                   std::span<double> out) const;

    /// transform(features, out) without the per-call validation, for
    /// batch loops that checked fitted() and the widths once at entry
    /// (Dataset transform, core::Model::classify). Debug builds
    /// still assert the preconditions; release builds skip them.
    void transform_unchecked(std::span<const double> features,
                             std::span<double> out) const;

    /// Applies transform() to every row of `data`.
    Dataset transform(const Dataset& data) const;

    bool fitted() const { return !means_.empty(); }
    std::span<const double> means() const { return means_; }
    std::span<const double> stddevs() const { return stddevs_; }

    /// Rebuilds a fitted scaler from persisted moments. Requires equal,
    /// non-zero sizes, finite means, and finite positive stddevs; throws
    /// wimi::Error otherwise. transform() of the restored scaler is
    /// bit-identical to the original's.
    static StandardScaler restore(std::vector<double> means,
                                  std::vector<double> stddevs);

private:
    std::vector<double> means_;
    std::vector<double> stddevs_;
};

}  // namespace wimi::ml
