// batch-identify: a closed loop on one thread calling Wimi::identify on
// unseen 20-packet captures of all ten liquids, each with its own
// baseline — the paper's operating point. It exercises core, dsp, simd
// and ml and nothing else, with no work shared between operations.
#include <iostream>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "serve/model.hpp"

namespace perfbench {
namespace {

using namespace wimi;

constexpr std::size_t kPerLiquid = 10;  // 100 unseen captures

struct BatchSetup {
    sim::Scenario scenario = lab_scenario();
    std::unique_ptr<core::Wimi> wimi;
    double setup_s = 0.0;
    std::vector<LabeledPair> pool;
    std::vector<std::size_t> order;  ///< visiting order, drawn from the seed
    std::vector<int> reference;      ///< InferenceEngine label per pool item
    Agreement agreement;
};

void prepare(const Options& options, BatchSetup& s) {
    const TrainingSet training = capture_training_set(s.scenario);
    s.setup_s = time_setup(
        [&] { s.wimi = std::make_unique<core::Wimi>(train_wimi(training)); });

    s.pool = capture_unseen(s.scenario, derive_seed(options.seed, 1),
                            kPerLiquid);
    s.order.resize(s.pool.size());
    std::iota(s.order.begin(), s.order.end(), std::size_t{0});
    Rng rng(derive_seed(options.seed, 2));
    rng.shuffle(s.order);

    const serve::InferenceEngine engine(serve::snapshot_model(*s.wimi));
    for (const LabeledPair& item : s.pool) {
        s.reference.push_back(
            engine.predict(item.pair.baseline, item.pair.target).material_id);
    }
    s.agreement = check_agreement(*s.wimi, engine, s.scenario);

    Digest digest;
    for (const std::size_t i : s.order) {
        digest.series(s.pool[i].pair.baseline);
        digest.series(s.pool[i].pair.target);
        digest.value(s.pool[i].label);
    }
    print_identity("batch-identify", digest);
}

/// Identifies every pool capture once, in visiting order.
void identify_pool(const BatchSetup& s) {
    for (const std::size_t i : s.order) {
        s.wimi->identify(s.pool[i].pair.baseline, s.pool[i].pair.target);
    }
}

void run_end_to_end(const Options& options, const BatchSetup& s,
                    Outcome& out, Report& report) {
    identify_pool(s);  // warm-up
    std::vector<double> latency_us;
    std::uint64_t right = 0;
    std::uint64_t failed = 0;
    const auto start = Clock::now();
    const auto deadline = after(start, options.seconds);
    auto last = start;
    for (std::size_t k = 0; last < deadline; ++k) {
        const std::size_t i = s.order[k % s.order.size()];
        const LabeledPair& item = s.pool[i];
        int label = -1;
        const auto t0 = Clock::now();
        try {
            label = s.wimi->identify(item.pair.baseline, item.pair.target)
                        .material_id;
        } catch (const std::exception& e) {
            std::cout << "identify failed: " << e.what() << '\n';
        }
        last = Clock::now();
        latency_us.push_back(us_between(t0, last));
        if (label != s.reference[i]) {
            ++failed;
        }
        if (label == item.label) {
            ++right;
        }
    }
    const double n = static_cast<double>(latency_us.size());
    out.attempted += latency_us.size();
    out.failed += failed;

    const std::size_t slices = slices_in(options.seconds);
    const double per_s = sliced_rate("identify_per_s", latency_us, slices);
    const double p50 =
        sliced_quantile("identify_p50_us", latency_us, 0.50, slices);
    const double p99 =
        sliced_quantile("identify_p99_us", latency_us, 0.99,
                        slices_in(options.seconds, kTailSliceSeconds));
    const double accuracy = static_cast<double>(right) / n;
    report.show("identify_per_s", per_s, "1/s");
    report.show("identify_p50_us", p50, "us");
    report.show("identify_p99_us", p99, "us");
    report.show("identify_samples", n, "count");
    report.show("error_ratio",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                "ratio");
    report.metric("setup_s", s.setup_s, "s");
    report.metric("accuracy", accuracy, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("ops_per_s", per_s, "1/s");
    report.metric("p50_us", p50, "us");
}

void run_traced(const Options& options, const BatchSetup& s, Outcome& out,
                Report& report) {
    identify_pool(s);  // warm-up
    const ModelView model = view_of(*s.wimi);
    LayerSweep sweep;
    std::vector<double> real_us;
    const auto deadline = after(Clock::now(), 0.6 * options.seconds);
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const std::size_t i = s.order[k % s.order.size()];
        const csi::CsiSeries& baseline = s.pool[i].pair.baseline;
        const csi::CsiSeries& target = s.pool[i].pair.target;
        const auto t0 = Clock::now();
        const int real = s.wimi->identify(baseline, target).material_id;
        real_us.push_back(us_between(t0, Clock::now()));
        const int composed =
            sweep_identification(baseline, target, model, sweep);
        ++out.attempted;
        if (real != s.reference[i] || composed != s.reference[i]) {
            ++out.failed;
        }
    }
    report.metric("p99_us",
                  sliced_quantile("identify_p99_us", real_us, 0.99,
                                  slices_in(0.6 * options.seconds,
                                            kTailSliceSeconds)),
                  "us");
    report_feature_layers(sweep, report);

    const double ops = static_cast<double>(sweep.ops);
    const double real = mean(real_us);
    const double layers = (sweep.spans.total_us("csi.soa_build") +
                           sweep.spans.total_us("core.feature") +
                           sweep.spans.total_us("ml.scale") +
                           sweep.spans.total_us("ml.svm_predict")) /
                          ops;
    report.metric("unattributed_share", (real - layers) / real, "ratio");
    report.metric("trace_overhead_share",
                  (sweep.composed_us / ops - real) / real, "ratio");
    report.metric("obs.overhead_share",
                  obs_overhead_share([&] { identify_pool(s); },
                                     0.25 * options.seconds),
                  "ratio");
    report_allocs([&] { identify_pool(s); },
                  static_cast<double>(s.order.size()), report);
}

}  // namespace

Outcome run_batch(const Options& options, Report& report) {
    BatchSetup setup;
    prepare(options, setup);
    Outcome out;
    out.attempted = setup.agreement.checks;
    out.failed = setup.agreement.disagreements;
    if (options.trace) {
        run_traced(options, setup, out, report);
    } else {
        run_end_to_end(options, setup, out, report);
    }
    return out;
}

}  // namespace perfbench
