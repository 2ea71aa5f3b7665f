// Tests for the labeled dataset container and splits.
#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace wimi::ml {
namespace {

Dataset three_class_dataset(std::size_t per_class) {
    Dataset data(2);
    for (int label = 0; label < 3; ++label) {
        for (std::size_t i = 0; i < per_class; ++i) {
            const double x = static_cast<double>(label) * 10.0 +
                             static_cast<double>(i);
            data.add(std::vector<double>{x, -x}, label);
        }
    }
    return data;
}

TEST(Dataset, AddAndAccess) {
    Dataset data(3);
    EXPECT_TRUE(data.empty());
    data.add(std::vector<double>{1.0, 2.0, 3.0}, 7);
    EXPECT_EQ(data.size(), 1u);
    EXPECT_EQ(data.feature_count(), 3u);
    EXPECT_EQ(data.label(0), 7);
    EXPECT_DOUBLE_EQ(data.features(0)[1], 2.0);
    EXPECT_THROW(data.features(1), Error);
    EXPECT_THROW(data.add(std::vector<double>{1.0}, 0), Error);
}

TEST(Dataset, DefaultConstructedInfersWidth) {
    Dataset data;
    data.add(std::vector<double>{1.0, 2.0}, 0);
    EXPECT_EQ(data.feature_count(), 2u);
    EXPECT_THROW(data.add(std::vector<double>{1.0, 2.0, 3.0}, 0), Error);
}

TEST(Dataset, DistinctLabelsSorted) {
    Dataset data(1);
    data.add(std::vector<double>{0.0}, 5);
    data.add(std::vector<double>{0.0}, 1);
    data.add(std::vector<double>{0.0}, 5);
    const auto labels = data.distinct_labels();
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_EQ(labels[0], 1);
    EXPECT_EQ(labels[1], 5);
}

TEST(Dataset, RowsWithLabel) {
    const auto data = three_class_dataset(4);
    const auto rows = data.rows_with_label(1);
    ASSERT_EQ(rows.size(), 4u);
    for (const std::size_t row : rows) {
        EXPECT_EQ(data.label(row), 1);
    }
}

TEST(Dataset, SubsetPreservesContent) {
    const auto data = three_class_dataset(3);
    const std::vector<std::size_t> rows = {0, 4, 8};
    const auto sub = data.subset(rows);
    ASSERT_EQ(sub.size(), 3u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(sub.label(i), data.label(rows[i]));
        EXPECT_DOUBLE_EQ(sub.features(i)[0], data.features(rows[i])[0]);
    }
}

TEST(StratifiedFolds, BalancedWithinClass) {
    const auto data = three_class_dataset(10);
    Rng rng(4);
    const auto folds = stratified_folds(data, 5, rng);
    ASSERT_EQ(folds.size(), data.size());
    for (int label = 0; label < 3; ++label) {
        std::map<std::size_t, int> counts;
        for (const std::size_t row : data.rows_with_label(label)) {
            ++counts[folds[row]];
        }
        EXPECT_EQ(counts.size(), 5u);
        for (const auto& [fold, count] : counts) {
            EXPECT_EQ(count, 2);
        }
    }
}

TEST(StratifiedFolds, Validation) {
    const auto data = three_class_dataset(2);
    Rng rng(5);
    EXPECT_THROW(stratified_folds(data, 1, rng), Error);
    EXPECT_THROW(stratified_folds(Dataset(1), 3, rng), Error);
}

}  // namespace
}  // namespace wimi::ml
