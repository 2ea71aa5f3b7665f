// The seeded serving experiment of the inference accuracy test and the
// batch-scaling perf gate: six liquids in the lab, 10 enrollment
// repetitions each (seed 7), then 20 unseen captures per liquid from a
// disjoint seed, liquid by liquid, so capture i holds liquid i / 20.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "serve/inference.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"

namespace wimi::testutil {

inline sim::ExperimentConfig serving_experiment() {
    sim::ExperimentConfig config;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kPepsi,     rf::Liquid::kHoney,
                      rf::Liquid::kVinegar,   rf::Liquid::kOil};
    config.repetitions = 10;
    config.seed = 7;
    return config;
}

struct ServingWorkload {
    std::vector<sim::MeasurementPair> captures;
    std::vector<serve::Observation> observations;  ///< into captures
};

inline ServingWorkload serving_workload(const sim::ExperimentConfig& config) {
    const sim::Scenario scenario(config.scenario);
    Rng rng(config.seed + 1);
    ServingWorkload w;
    for (const rf::Liquid liquid : config.liquids) {
        for (int rep = 0; rep < 20; ++rep) {
            w.captures.push_back(
                scenario.capture_measurement(liquid, rng.next_u64()));
        }
    }
    for (const sim::MeasurementPair& m : w.captures) {
        w.observations.push_back({&m.baseline, &m.target});
    }
    return w;
}

}  // namespace wimi::testutil
