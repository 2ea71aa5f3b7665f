// Tests for antenna pair ranking (paper Sec. III-F).
#include "core/antenna_selection.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/frame.hpp"

namespace wimi::core {
namespace {

// Three antennas where antenna 2 is much noisier than 0 and 1: the best
// pair must be {0, 1}.
csi::CsiSeries asymmetric_noise_series(std::size_t packets,
                                       std::uint64_t seed) {
    Rng rng(seed);
    csi::CsiSeries series;
    for (std::size_t p = 0; p < packets; ++p) {
        csi::CsiFrame frame(3, 8);
        for (std::size_t k = 0; k < 8; ++k) {
            frame.at(0, k) =
                std::polar(1.0 + rng.gaussian(0.0, 0.01),
                           rng.gaussian(0.1, 0.01));
            frame.at(1, k) =
                std::polar(1.0 + rng.gaussian(0.0, 0.01),
                           rng.gaussian(-0.2, 0.01));
            // std::polar requires a non-negative radius; a 0.3 spread
            // around 1 dips below zero now and then.
            frame.at(2, k) =
                std::polar(std::abs(1.0 + rng.gaussian(0.0, 0.3)),
                           rng.gaussian(0.5, 0.4));
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

TEST(AntennaSelection, RanksAllPairs) {
    const auto series = asymmetric_noise_series(200, 1);
    const auto ranking = rank_antenna_pairs(series);
    ASSERT_EQ(ranking.size(), 3u);
    // Scores sorted ascending.
    EXPECT_LE(ranking[0].score, ranking[1].score);
    EXPECT_LE(ranking[1].score, ranking[2].score);
}

TEST(AntennaSelection, BestPairAvoidsNoisyAntenna) {
    const auto series = asymmetric_noise_series(200, 2);
    const AntennaPair best = select_best_pair(series);
    EXPECT_TRUE(best == (AntennaPair{0, 1}));
}

TEST(AntennaSelection, StabilitynumbersPopulated) {
    const auto series = asymmetric_noise_series(100, 3);
    for (const auto& entry : rank_antenna_pairs(series)) {
        EXPECT_GE(entry.mean_phase_variance, 0.0);
        EXPECT_GE(entry.mean_amplitude_variance, 0.0);
        EXPECT_GT(entry.score, 0.0);
    }
}

TEST(AntennaSelection, PairsInvolvingNoisyAntennaScoreWorse) {
    const auto series = asymmetric_noise_series(200, 4);
    const auto ranking = rank_antenna_pairs(series);
    // The two worst pairs both involve antenna 2.
    for (std::size_t i = 1; i < ranking.size(); ++i) {
        EXPECT_TRUE(ranking[i].pair.first == 2 ||
                    ranking[i].pair.second == 2);
    }
}

TEST(AntennaSelection, Deterministic) {
    const auto series = asymmetric_noise_series(100, 5);
    const auto a = rank_antenna_pairs(series);
    const auto b = rank_antenna_pairs(series);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].pair == b[i].pair);
        EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
}

TEST(AntennaSelection, Validation) {
    EXPECT_THROW(rank_antenna_pairs({}), Error);
    csi::CsiSeries one_antenna;
    one_antenna.frames.emplace_back(1, 4);
    EXPECT_THROW(rank_antenna_pairs(one_antenna), Error);
}

}  // namespace
}  // namespace wimi::core
