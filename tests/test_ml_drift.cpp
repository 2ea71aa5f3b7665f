// Tests for feature-drift detection via PSI (ml/drift).
#include "ml/drift.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace wimi::ml {
namespace {

/// `rows` samples of `features` Gaussian features centered at
/// `center + f` with the given spread.
Dataset gaussian_dataset(std::size_t rows, std::size_t features,
                         double center, double spread, std::uint64_t seed) {
    Rng rng(seed);
    Dataset data(features);
    std::vector<double> x(features);
    for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t f = 0; f < features; ++f) {
            x[f] = center + static_cast<double>(f) +
                   rng.gaussian(0.0, spread);
        }
        data.add(x, 0);
    }
    return data;
}

TEST(Psi, SelfComparisonIsNearZero) {
    const Dataset data = gaussian_dataset(500, 3, 0.0, 1.0, 11);
    const PsiReference ref = make_psi_reference(data);
    // Same sample against its own deciles: proportions match exactly.
    EXPECT_NEAR(population_stability_index(ref, data), 0.0, 1e-9);
}

TEST(Psi, FreshSampleFromSameDistributionStaysStable) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(2000, 3, 0.0, 1.0, 11));
    const Dataset fresh = gaussian_dataset(2000, 3, 0.0, 1.0, 99);
    // Conventional reading: < 0.1 is "no meaningful shift".
    EXPECT_LT(population_stability_index(ref, fresh), 0.1);
}

TEST(Psi, ShiftedDistributionCrossesTheAlarmLine) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(2000, 3, 0.0, 1.0, 11));
    const Dataset shifted = gaussian_dataset(2000, 3, 2.0, 1.0, 99);
    EXPECT_GT(population_stability_index(ref, shifted), 0.25);
}

TEST(Psi, PerFeatureIsolatesTheDriftingFeature) {
    const Dataset base = gaussian_dataset(3000, 2, 0.0, 1.0, 7);
    const PsiReference ref = make_psi_reference(base);
    // Shift only feature 1 by 3 sigma.
    Dataset drifted(2);
    for (std::size_t row = 0; row < base.size(); ++row) {
        const std::vector<double> x = {base.features(row)[0],
                                       base.features(row)[1] + 3.0};
        drifted.add(x, 0);
    }
    const std::vector<double> psi = psi_per_feature(ref, drifted);
    ASSERT_EQ(psi.size(), 2u);
    EXPECT_LT(psi[0], 0.1);
    EXPECT_GT(psi[1], 0.25);
}

TEST(Psi, ConstantFeatureCollapsesToOneBinWithoutBlowingUp) {
    Dataset data(1);
    const std::vector<double> sample = {5.0};
    for (int i = 0; i < 100; ++i) {
        data.add(sample, 0);
    }
    const PsiReference ref = make_psi_reference(data);
    ASSERT_EQ(ref.feature_count(), 1u);
    EXPECT_LE(ref.edges[0].size(), 1u);  // duplicates collapsed
    EXPECT_NEAR(population_stability_index(ref, data), 0.0, 1e-6);
}

TEST(Psi, MismatchedFeatureCountThrows) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(100, 3, 0.0, 1.0, 1));
    const Dataset narrow = gaussian_dataset(100, 2, 0.0, 1.0, 1);
    EXPECT_THROW(psi_per_feature(ref, narrow), Error);
    EXPECT_THROW(make_psi_reference(Dataset(3)), Error);
}

TEST(PsiReference, JsonRoundTripPreservesBinsExactly) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(400, 3, 0.0, 1.0, 13));
    const PsiReference back =
        psi_reference_from_json(psi_reference_to_json(ref));
    ASSERT_EQ(back.feature_count(), ref.feature_count());
    EXPECT_EQ(back.sample_count, ref.sample_count);
    for (std::size_t f = 0; f < ref.feature_count(); ++f) {
        ASSERT_EQ(back.edges[f].size(), ref.edges[f].size());
        for (std::size_t i = 0; i < ref.edges[f].size(); ++i) {
            EXPECT_DOUBLE_EQ(back.edges[f][i], ref.edges[f][i]);
        }
        ASSERT_EQ(back.proportions[f].size(), ref.proportions[f].size());
        for (std::size_t i = 0; i < ref.proportions[f].size(); ++i) {
            EXPECT_DOUBLE_EQ(back.proportions[f][i],
                             ref.proportions[f][i]);
        }
    }
}

TEST(PsiReference, ParserRejectsMalformedDocuments) {
    EXPECT_THROW(psi_reference_from_json("{}"), Error);
    EXPECT_THROW(
        psi_reference_from_json("{\"schema\":\"wimi.psi_ref.v2\"}"), Error);
    // proportions must have edges+1 bins.
    EXPECT_THROW(psi_reference_from_json(
                     "{\"schema\":\"wimi.psi_ref.v1\",\"features\":["
                     "{\"edges\":[1,2],\"proportions\":[0.5,0.5]}]}"),
                 Error);
    // edges must be strictly ascending.
    EXPECT_THROW(psi_reference_from_json(
                     "{\"schema\":\"wimi.psi_ref.v1\",\"features\":["
                     "{\"edges\":[2,1],\"proportions\":[0.3,0.3,0.4]}]}"),
                 Error);
}

/// The gate's pooled rows as a Dataset, for batch comparison.
Dataset pool_as_dataset(const std::vector<std::vector<double>>& rows) {
    Dataset data(rows.front().size());
    for (const std::vector<double>& row : rows) {
        data.add(row, 0);
    }
    return data;
}

std::vector<std::vector<double>> gaussian_rows(std::size_t rows,
                                               std::size_t features,
                                               double center,
                                               std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<double>> out(rows,
                                         std::vector<double>(features));
    for (auto& row : out) {
        for (std::size_t f = 0; f < features; ++f) {
            row[f] = center + static_cast<double>(f) + rng.gaussian();
        }
    }
    return out;
}

TEST(OnlinePsiGateTest, MatchesBatchPsiOnIdenticalPoolContents) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(1000, 3, 0.0, 1.0, 11));
    const auto rows = gaussian_rows(40, 3, 0.7, 21);

    OnlinePsiGate gate(ref, {64, 8, 0.25});
    for (const auto& row : rows) {
        gate.add(row);
    }
    ASSERT_TRUE(gate.ready());
    // Same bins, same epsilon floor, same mean over features: the
    // streaming counts must reproduce the batch number exactly.
    EXPECT_EQ(gate.psi(),
              population_stability_index(ref, pool_as_dataset(rows)));
}

TEST(OnlinePsiGateTest, EvictionKeepsOnlyTheNewestCapacityRows) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(1000, 2, 0.0, 1.0, 13));
    constexpr std::size_t kCapacity = 16;
    const auto rows = gaussian_rows(kCapacity + 25, 2, 1.5, 23);

    OnlinePsiGate gate(ref, {kCapacity, 4, 0.25});
    for (const auto& row : rows) {
        gate.add(row);
    }
    EXPECT_EQ(gate.size(), kCapacity);
    EXPECT_EQ(gate.total_added(), rows.size());
    // psi() must be computed over exactly the surviving window.
    const std::vector<std::vector<double>> newest(rows.end() - kCapacity,
                                                  rows.end());
    EXPECT_EQ(gate.psi(),
              population_stability_index(ref, pool_as_dataset(newest)));
}

/// The streaming pipeline's drift condition (StreamingPipeline's
/// drift_gated): a ready gate whose PSI passes the threshold.
bool drifted(const OnlinePsiGate& gate) {
    return gate.ready() && gate.psi() > gate.config().threshold;
}

TEST(OnlinePsiGateTest, DriftedTracksReadinessAndThreshold) {
    // Coarse (4-bin) reference: PSI over a pool of dozens of samples is
    // dominated by the shift, not multinomial sampling noise.
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(2000, 3, 0.0, 1.0, 11), 4);
    OnlinePsiGate gate(ref, {64, 16, 0.25});
    EXPECT_FALSE(gate.ready());
    EXPECT_FALSE(drifted(gate));  // never drifted before min_samples

    // In-distribution fill: ready but stable.
    for (const auto& row : gaussian_rows(64, 3, 0.0, 31)) {
        gate.add(row);
    }
    EXPECT_TRUE(gate.ready());
    EXPECT_LT(gate.psi(), 0.25);
    EXPECT_FALSE(drifted(gate));

    // Shifted population floods the pool: the gate must trip.
    for (const auto& row : gaussian_rows(64, 3, 3.0, 33)) {
        gate.add(row);
    }
    EXPECT_GT(gate.psi(), 0.25);
    EXPECT_TRUE(drifted(gate));

    gate.reset();
    EXPECT_EQ(gate.size(), 0u);
    EXPECT_FALSE(gate.ready());
    EXPECT_FALSE(drifted(gate));
}

TEST(OnlinePsiGateTest, RejectsBadConfigsAndMismatchedRows) {
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(100, 2, 0.0, 1.0, 17));
    EXPECT_THROW(OnlinePsiGate(ref, {0, 1, 0.25}), Error);
    EXPECT_THROW(OnlinePsiGate(ref, {8, 0, 0.25}), Error);
    EXPECT_THROW(OnlinePsiGate(ref, {8, 9, 0.25}), Error);
    EXPECT_THROW(OnlinePsiGate(PsiReference{}, {8, 4, 0.25}), Error);

    OnlinePsiGate gate(ref, {8, 4, 0.25});
    const std::vector<double> short_row = {1.0};
    EXPECT_THROW(gate.add(short_row), Error);
    EXPECT_THROW(gate.psi(), Error);  // not ready yet
}

TEST(PsiReference, FileRoundTrip) {
    const std::string path = testing::TempDir() + "wimi_psi_ref.json";
    const PsiReference ref =
        make_psi_reference(gaussian_dataset(200, 2, 0.0, 1.0, 3));
    save_psi_reference(path, ref);
    const PsiReference back = load_psi_reference(path);
    EXPECT_EQ(back.feature_count(), 2u);
    EXPECT_EQ(back.sample_count, 200u);
    std::remove(path.c_str());
    EXPECT_THROW(load_psi_reference(path), Error);
}

}  // namespace
}  // namespace wimi::ml
