// Labeled feature datasets for the material classifier.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace wimi::ml {

/// Dense labeled dataset: one feature vector + integer class label per row.
class Dataset {
public:
    Dataset() = default;

    /// Creates an empty dataset expecting `feature_count` features per row.
    explicit Dataset(std::size_t feature_count);

    /// Appends one sample. The feature size must match feature_count().
    void add(std::span<const double> features, int label);

    std::size_t size() const { return labels_.size(); }
    bool empty() const { return labels_.empty(); }
    std::size_t feature_count() const { return feature_count_; }

    /// Row accessors (bounds-checked).
    std::span<const double> features(std::size_t row) const;
    int label(std::size_t row) const;

    /// Distinct labels present, sorted ascending.
    std::vector<int> distinct_labels() const;

    /// Rows holding each label.
    std::vector<std::size_t> rows_with_label(int label) const;

    /// Returns the subset of rows given by `rows`.
    Dataset subset(std::span<const std::size_t> rows) const;

private:
    std::size_t feature_count_ = 0;
    std::vector<double> features_;  // row-major
    std::vector<int> labels_;
};

/// Stratified k-fold assignment: returns fold index per row, folds balanced
/// within each class. Requires folds >= 2 and every class to have at least
/// one row.
std::vector<std::size_t> stratified_folds(const Dataset& data,
                                          std::size_t folds, Rng& rng);

}  // namespace wimi::ml
