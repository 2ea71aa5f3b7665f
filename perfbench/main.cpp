// WiMi end-to-end benchmark.
//
//   perfbench        --workload W --seed N --seconds S --trace 0
//   perfbench_traced --workload W --seed N --seconds S --trace 1
//
// W is batch-identify, stream-follow or serve-mixed. The untraced run
// prints the end-to-end metrics, the traced run the per-layer ones
// (BENCHMARK.json lists both). The last stdout line is the JSON result;
// the exit code is non-zero when a correctness check failed. run.py
// builds both binaries and runs the right one inside the build tree.
#include <iostream>
#include <set>
#include <string>

#include "exec/parallel.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

/// Below this share of right labels the pipeline is broken, whatever the
/// paths agree on (chance over ten liquids is 0.1).
constexpr double kAccuracyFloor = 0.5;

int usage() {
    std::cerr << "usage: perfbench --workload "
                 "batch-identify|stream-follow|serve-mixed --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
}

bool parse(int argc, char** argv, Options& options) {
    if (argc % 2 != 1) {
        return false;
    }
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            options.trace = value == "1";
        } else {
            return false;
        }
    }
    return !options.workload.empty() && options.seconds > 0.0;
}

/// Completes the metric set the run's mode promises and checks it is
/// exactly that set. Per-layer metrics of a layer this workload never
/// enters read 0 (e.g. serve.* on batch-identify).
bool complete_metrics(Report& report, bool trace) {
    const std::vector<MetricSpec>& specs =
        trace ? kPerLayerMetrics : kEndToEndMetrics;
    if (trace) {
        for (const MetricSpec& spec : specs) {
            if (!report.has(spec.name)) {
                report.metric(spec.name, 0.0, spec.unit);
            }
        }
    }
    std::set<std::string> expected;
    for (const MetricSpec& spec : specs) {
        expected.insert(std::string(spec.name) + ' ' + spec.unit);
    }
    std::set<std::string> seen;
    for (const Report::Metric& m : report.metrics()) {
        seen.insert(m.name + ' ' + m.unit);
    }
    const bool exact =
        seen == expected && report.metrics().size() == specs.size();
    if (!exact) {
        std::cout << "metric set does not match BENCHMARK.json\n";
    }
    return exact;
}

bool accurate(const Report& report) {
    for (const Report::Metric& m : report.metrics()) {
        if (m.name == "accuracy" && m.value < kAccuracyFloor) {
            std::cout << "accuracy " << m.value << " below the floor "
                      << kAccuracyFloor << '\n';
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    try {
        if (!parse(argc, argv, options)) {
            return usage();
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (options.trace != alloc_counting()) {
        std::cerr << "perfbench: --trace " << options.trace
                  << " runs in the "
                  << (options.trace ? "perfbench_traced" : "perfbench")
                  << " binary\n";
        return 2;
    }
    std::cout << "perfbench workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << options.trace << '\n';
    wimi::exec::warm_pool();

    Report report;
    Outcome outcome;
    try {
        if (options.workload == "batch-identify") {
            outcome = run_batch(options, report);
        } else if (options.workload == "stream-follow") {
            outcome = run_stream(options, report);
        } else if (options.workload == "serve-mixed") {
            outcome = run_serve(options, report);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    const bool complete = complete_metrics(report, options.trace);
    const bool correct = outcome.correct && outcome.failed == 0 &&
                         outcome.attempted > 0 && complete &&
                         accurate(report);
    report.finish(correct, outcome.attempted, outcome.failed);
    return correct ? 0 : 1;
}
