// The exec determinism contract, end to end: every parallelized pipeline
// stage must produce bit-identical results at any execution width. Each
// test runs the same computation serially (threads=1) and fanned out
// (threads=4, more than this container may have cores — the contract is
// about scheduling order, not core count) and compares exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "exec/parallel.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "rf/environment.hpp"
#include "sim/harness.hpp"

namespace {

using namespace wimi;

/// Restores the process-wide pool to its default width after each test.
class ExecDeterminismTest : public ::testing::Test {
protected:
    void TearDown() override { exec::set_thread_count(0); }
};

/// A small but non-trivial experiment: 4 liquids x 6 repetitions,
/// 3-fold CV, SVM classifier — every parallel seam participates.
sim::ExperimentConfig small_experiment(rf::Environment environment) {
    sim::ExperimentConfig config;
    config.scenario.environment = environment;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kPepsi, rf::Liquid::kHoney};
    config.repetitions = 6;
    config.cv_folds = 3;
    config.seed = 21;
    return config;
}

/// Gaussian blob dataset for the classifier-only tests.
ml::Dataset blobs(std::uint64_t seed, int classes, std::size_t per_class,
                  double spread) {
    Rng rng(seed);
    ml::Dataset data(3);
    for (int label = 0; label < classes; ++label) {
        for (std::size_t i = 0; i < per_class; ++i) {
            std::vector<double> x(3);
            for (double& v : x) {
                v = rng.gaussian(static_cast<double>(label), spread);
            }
            data.add(x, label);
        }
    }
    return data;
}

void expect_identical_results(const sim::ExperimentResult& a,
                              const sim::ExperimentResult& b) {
    // Exact floating-point equality is the point: the parallel schedule
    // must not perturb a single bit of the result.
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.mean_recall, b.mean_recall);
    EXPECT_EQ(a.class_names, b.class_names);
    ASSERT_EQ(a.confusion.labels().size(), b.confusion.labels().size());
    EXPECT_EQ(a.confusion.total(), b.confusion.total());
    for (const int truth : a.confusion.labels()) {
        for (const int predicted : a.confusion.labels()) {
            EXPECT_EQ(a.confusion.count(truth, predicted),
                      b.confusion.count(truth, predicted))
                << "count(" << truth << ", " << predicted << ")";
        }
    }
}

TEST_F(ExecDeterminismTest, ExperimentBitIdenticalAcrossAllEnvironments) {
    for (const rf::Environment environment :
         {rf::Environment::kHall, rf::Environment::kLab,
          rf::Environment::kLibrary}) {
        SCOPED_TRACE(rf::environment_name(environment));
        auto config = small_experiment(environment);

        exec::set_thread_count(1);  // exact legacy code path
        const auto serial = sim::run_identification_experiment(config);

        exec::set_thread_count(4);
        const auto parallel = sim::run_identification_experiment(config);

        expect_identical_results(serial, parallel);
    }
}

TEST_F(ExecDeterminismTest, FeatureDatasetBitIdenticalAcrossWidths) {
    const auto config = small_experiment(rf::Environment::kLab);
    const core::Wimi wimi = sim::make_calibrated_wimi(config);

    exec::set_thread_count(1);
    const auto serial = sim::build_feature_dataset(config, wimi);
    exec::set_thread_count(4);
    const auto parallel = sim::build_feature_dataset(config, wimi);

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.feature_count(), parallel.feature_count());
    for (std::size_t row = 0; row < serial.size(); ++row) {
        EXPECT_EQ(serial.label(row), parallel.label(row));
        const auto a = serial.features(row);
        const auto b = parallel.features(row);
        for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j], b[j]) << "row " << row << " feature " << j;
        }
    }
}

TEST_F(ExecDeterminismTest, MulticlassSvmTrainingIdenticalAcrossWidths) {
    const auto data = blobs(7, 5, 14, 0.4);
    ml::StandardScaler scaler;
    scaler.fit(data);
    const auto scaled = scaler.transform(data);

    exec::set_thread_count(1);
    ml::MulticlassSvm serial;
    serial.train(scaled);
    exec::set_thread_count(4);
    ml::MulticlassSvm parallel;
    parallel.train(scaled);

    for (std::size_t row = 0; row < scaled.size(); ++row) {
        EXPECT_EQ(serial.predict(scaled.features(row)),
                  parallel.predict(scaled.features(row)))
            << "row " << row;
        EXPECT_EQ(serial.votes(scaled.features(row)),
                  parallel.votes(scaled.features(row)));
    }
}

TEST_F(ExecDeterminismTest,
       PrecomputedAssignmentOverloadMatchesTheRngOverload) {
    const auto data = blobs(13, 4, 10, 0.5);
    const std::size_t folds = 4;
    // Trivial constant classifier: this test compares partitions, not
    // model quality.
    const auto classify = [](const ml::Dataset& train,
                             const ml::Dataset& test) {
        (void)train;
        return std::vector<int>(test.size(), 0);
    };
    Rng rng_a(5);
    Rng rng_b(5);
    const auto assignment = ml::stratified_folds(data, folds, rng_a);

    const auto via_rng = ml::cross_validate(data, folds, rng_b, classify);
    const auto via_assignment =
        ml::cross_validate(data, assignment, folds, classify);

    EXPECT_EQ(via_rng.total(), via_assignment.total());
    for (const int truth : via_rng.labels()) {
        for (const int predicted : via_rng.labels()) {
            EXPECT_EQ(via_rng.count(truth, predicted),
                      via_assignment.count(truth, predicted));
        }
    }
}

TEST_F(ExecDeterminismTest, ExperimentThreadsFieldCapsWidthDeterministically) {
    // config.threads = 1 must match config.threads = 3 even when the
    // process pool is wider.
    exec::set_thread_count(4);
    auto config = small_experiment(rf::Environment::kHall);
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kHoney,
                      rf::Liquid::kMilk};
    config.repetitions = 5;

    config.threads = 1;
    const auto serial = sim::run_identification_experiment(config);
    config.threads = 3;
    const auto capped = sim::run_identification_experiment(config);

    expect_identical_results(serial, capped);
}

}  // namespace
