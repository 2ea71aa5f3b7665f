#include "ml/dataset.hpp"

#include <set>

#include "common/error.hpp"

namespace wimi::ml {

Dataset::Dataset(std::size_t feature_count) : feature_count_(feature_count) {
    ensure(feature_count >= 1, "Dataset: need at least one feature");
}

void Dataset::add(std::span<const double> features, int label) {
    if (feature_count_ == 0) {
        ensure(!features.empty(), "Dataset::add: empty feature vector");
        feature_count_ = features.size();
    }
    ensure(features.size() == feature_count_,
           "Dataset::add: feature count mismatch");
    features_.insert(features_.end(), features.begin(), features.end());
    labels_.push_back(label);
}

std::span<const double> Dataset::features(std::size_t row) const {
    ensure(row < labels_.size(), "Dataset::features: row out of range");
    return {features_.data() + row * feature_count_, feature_count_};
}

int Dataset::label(std::size_t row) const {
    ensure(row < labels_.size(), "Dataset::label: row out of range");
    return labels_[row];
}

std::vector<int> Dataset::distinct_labels() const {
    std::set<int> unique(labels_.begin(), labels_.end());
    return {unique.begin(), unique.end()};
}

std::vector<std::size_t> Dataset::rows_with_label(int label) const {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
        if (labels_[i] == label) {
            rows.push_back(i);
        }
    }
    return rows;
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
    Dataset out(feature_count_ == 0 ? 1 : feature_count_);
    for (const std::size_t row : rows) {
        out.add(features(row), label(row));
    }
    return out;
}

std::vector<std::size_t> stratified_folds(const Dataset& data,
                                          std::size_t folds, Rng& rng) {
    ensure(folds >= 2, "stratified_folds: need at least 2 folds");
    ensure(!data.empty(), "stratified_folds: empty dataset");
    std::vector<std::size_t> assignment(data.size(), 0);
    for (const int label : data.distinct_labels()) {
        auto rows = data.rows_with_label(label);
        rng.shuffle(rows);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            assignment[rows[i]] = i % folds;
        }
    }
    return assignment;
}

}  // namespace wimi::ml
