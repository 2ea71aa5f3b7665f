#include "sim/harness.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/stats.hpp"
#include "exec/parallel.hpp"
#include "ml/drift.hpp"
#include "ml/knn.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"
#include "rf/environment.hpp"

namespace wimi::sim {
namespace {

/// Fold-local train/predict closure matching the experiment's classifier.
std::vector<int> train_and_predict(const ml::Dataset& train,
                                   const ml::Dataset& test,
                                   const ExperimentConfig& config) {
    ml::StandardScaler scaler;
    scaler.fit(train);
    const ml::Dataset scaled_train = scaler.transform(train);

    std::vector<int> predictions;
    predictions.reserve(test.size());
    // One width check for the whole fold; every row of `test` shares
    // feature_count(), so the loops use the unchecked transform.
    ensure(test.feature_count() == scaler.means().size(),
           "train_and_predict: test feature width does not match the scaler");
    std::vector<double> scaled(test.feature_count());
    switch (config.classifier) {
        case ClassifierKind::kSvm: {
            ml::MulticlassSvm svm(config.wimi.svm);
            svm.train(scaled_train);
            for (std::size_t i = 0; i < test.size(); ++i) {
                scaler.transform_unchecked(test.features(i), scaled);
                predictions.push_back(svm.predict(scaled));
            }
            break;
        }
        case ClassifierKind::kKnn: {
            ml::KnnClassifier knn(kKnnNeighbors);
            knn.train(scaled_train);
            for (std::size_t i = 0; i < test.size(); ++i) {
                scaler.transform_unchecked(test.features(i), scaled);
                predictions.push_back(knn.predict(scaled));
            }
            break;
        }
    }
    return predictions;
}

/// One simulated measurement to capture: which liquid, its class label,
/// and the serially pre-drawn stochastic inputs (determinism contract).
struct CaptureTask {
    rf::Liquid liquid = rf::Liquid::kPureWater;
    int label = 0;
    rf::Vec2 offset;
    std::uint64_t session_seed = 0;
};

/// Draws the (liquid x repetition) capture schedule serially, in the
/// legacy loop order, so the rng stream is consumed identically at every
/// execution width. Shared by the training and serving paths: for equal
/// seeds they capture the same measurements.
std::vector<CaptureTask> draw_capture_tasks(const ExperimentConfig& config) {
    ensure(!config.liquids.empty(), "capture schedule: no liquids configured");
    ensure(config.repetitions >= 1,
           "capture schedule: repetitions must be >= 1");
    Rng rng(config.seed);
    std::vector<CaptureTask> tasks;
    tasks.reserve(config.liquids.size() * config.repetitions);
    for (std::size_t li = 0; li < config.liquids.size(); ++li) {
        for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
            // Each repetition is a fresh capture session with the beaker
            // repositioned imperfectly, as when an experimenter swaps and
            // refills it.
            CaptureTask task;
            task.liquid = config.liquids[li];
            task.label = static_cast<int>(li);
            task.offset = {rng.gaussian(0.0, config.position_jitter_m),
                           rng.gaussian(0.0, config.position_jitter_m)};
            task.session_seed = rng.next_u64();
            tasks.push_back(task);
        }
    }
    return tasks;
}

/// Mean per-feature variance of a dataset: the paper's environment
/// comparison in one number (noisier environments spread the Omega
/// features further; the library's drop in accuracy shows up here before
/// it shows up in the confusion matrix).
double mean_feature_variance(const ml::Dataset& data) {
    if (data.size() < 2 || data.feature_count() == 0) {
        return 0.0;
    }
    double total = 0.0;
    for (std::size_t f = 0; f < data.feature_count(); ++f) {
        dsp::RunningStats stats;
        for (std::size_t row = 0; row < data.size(); ++row) {
            stats.add(data.features(row)[f]);
        }
        total += stats.variance();
    }
    return total / static_cast<double>(data.feature_count());
}

}  // namespace

std::string serialize_config(const ExperimentConfig& config) {
    // Order and formatting are part of the digest contract: append-only,
    // never reorder, so a given experimental setup keeps its digest
    // across library versions unless a result-affecting field changes.
    std::ostringstream out;
    out.precision(17);
    const ScenarioConfig& sc = config.scenario;
    out << "env=" << rf::environment_name(sc.environment)
        << ";dist=" << sc.link_distance_m
        << ";beaker=" << sc.beaker_diameter_m
        << ";container=" << static_cast<int>(sc.container)
        << ";kappa=" << sc.effective_path_fraction
        << ";packets=" << sc.packets
        << ";env_seed=" << sc.environment_seed
        << ";quantize=" << (sc.quantize_csi ? 1 : 0);
    const csi::ImpairmentConfig& imp = sc.impairments;
    out << ";imp=" << (imp.random_cfo ? 1 : 0) << ','
        << imp.timing_error_std_s << ',' << imp.phase_noise_std_rad << ','
        << imp.noise_floor_dbc << ',' << imp.agc_jitter_db << ','
        << imp.outlier_probability << ',' << imp.outlier_gain_lo << ','
        << imp.outlier_gain_hi << ',' << imp.impulse_probability << ','
        << imp.impulse_relative_magnitude << ','
        << imp.static_gain_spread_db << ',' << imp.static_phase_spread_rad;
    out << ";liquids=";
    for (std::size_t i = 0; i < config.liquids.size(); ++i) {
        out << (i > 0 ? "," : "") << rf::liquid_name(config.liquids[i]);
    }
    const core::WimiConfig& wc = config.wimi;
    out << ";pairs=";
    for (std::size_t i = 0; i < wc.pairs.size(); ++i) {
        out << (i > 0 ? "," : "") << wc.pairs[i].first << '-'
            << wc.pairs[i].second;
    }
    out << ";auto_pair=" << (wc.auto_select_pair ? 1 : 0) << ";subcarriers=";
    for (std::size_t i = 0; i < wc.subcarriers.size(); ++i) {
        out << (i > 0 ? "," : "") << wc.subcarriers[i];
    }
    out << ";good_sc=" << wc.good_subcarrier_count
        << ";classifier=" << static_cast<int>(config.classifier)
        << ";svm_c=" << wc.svm.c << ";svm_gamma=" << wc.svm.gamma
        << ";knn_k=" << kKnnNeighbors << ";reps=" << config.repetitions
        << ";folds=" << config.cv_folds
        << ";jitter=" << config.position_jitter_m
        << ";seed=" << config.seed;
    return out.str();
}

core::Wimi make_calibrated_wimi(const ExperimentConfig& config) {
    const Scenario scenario(config.scenario);
    core::Wimi wimi(config.wimi);
    // Calibration uses its own session, like surveying the deployment
    // before the measurement campaign starts.
    const auto reference =
        scenario.capture_reference(config.seed ^ 0xCA11B8A7EULL);
    wimi.calibrate(reference);
    return wimi;
}

ml::Dataset build_feature_dataset(const ExperimentConfig& config,
                                  const core::Wimi& wimi) {
    WIMI_TRACE_SPAN("harness.build_dataset");

    const Scenario scenario(config.scenario);
    const std::vector<CaptureTask> tasks = draw_capture_tasks(config);

    // Fan out the expensive capture + feature extraction, then assemble
    // the dataset in task order.
    const auto rows = exec::parallel_map<std::vector<double>>(
        tasks.size(),
        [&](std::size_t t) {
            const auto pair = scenario.capture_measurement(
                tasks[t].liquid, tasks[t].session_seed, tasks[t].offset);
            return wimi.features(pair.baseline, pair.target);
        },
        {.label = "harness.capture", .threads = config.threads});

    ml::Dataset data;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        data.add(rows[t], tasks[t].label);
    }
    if (WIMI_OBS_ENABLED()) {
        // Per-environment feature spread, labeled by the scenario's
        // environment name (e.g. harness.feature_variance.Library).
        const std::string gauge_name =
            std::string("harness.feature_variance.") +
            std::string(
                rf::environment_name(config.scenario.environment));
        WIMI_OBS_GAUGE_SET(gauge_name, mean_feature_variance(data));
        if (!config.psi_reference_path.empty()) {
            // Drift vs the stored reference run: publishes the mean and
            // worst-feature PSI so wimi_regress can gate them.
            const ml::PsiReference ref =
                ml::load_psi_reference(config.psi_reference_path);
            const std::vector<double> psi = ml::psi_per_feature(ref, data);
            double sum = 0.0;
            double worst = 0.0;
            for (const double v : psi) {
                sum += v;
                worst = std::max(worst, v);
            }
            const double mean_psi =
                sum / static_cast<double>(psi.size());
            WIMI_OBS_GAUGE_SET("quality.feature.psi", mean_psi);
            WIMI_OBS_GAUGE_SET("quality.feature.psi_max", worst);
            WIMI_OBS_LOG_INFO("sim.harness", "feature drift probe",
                              obs::kv("psi_mean", mean_psi),
                              obs::kv("psi_max", worst),
                              obs::kv("reference",
                                      config.psi_reference_path));
            if (worst > 0.25) {
                // 0.25 is the conventional "significant shift" PSI
                // threshold (matches the regress gate's tolerance).
                WIMI_OBS_LOG_WARN("sim.harness",
                                  "feature drift above PSI threshold",
                                  obs::kv("psi_max", worst),
                                  obs::kv("threshold", 0.25));
            }
        }
    }
    WIMI_OBS_LOG_DEBUG("sim.harness", "feature dataset built",
                       obs::kv("rows", data.size()),
                       obs::kv("tasks", tasks.size()));
    return data;
}

ExperimentResult evaluate_dataset(const ml::Dataset& data,
                                  const ExperimentConfig& config,
                                  std::vector<std::string> class_names) {
    ensure(config.cv_folds >= 2, "evaluate_dataset: cv_folds must be >= 2");
    WIMI_TRACE_SPAN("harness.evaluate");
    Rng rng(config.seed ^ 0xF01D5EEDULL);
    auto confusion = ml::cross_validate(
        data, config.cv_folds, rng,
        [&](const ml::Dataset& train, const ml::Dataset& test) {
            return train_and_predict(train, test, config);
        },
        class_names, config.threads);
    ExperimentResult result{std::move(confusion), 0.0, 0.0,
                            std::move(class_names)};
    result.accuracy = result.confusion.accuracy();
    result.mean_recall = result.confusion.mean_recall();
    return result;
}

ExperimentResult run_identification_experiment(
    const ExperimentConfig& config) {
    WIMI_TRACE_SPAN("harness.experiment");
    obs::RunContext run("sim.harness");
    run.set_seed(config.seed);
    run.set_threads(config.threads);
    run.set_config(serialize_config(config));
    WIMI_OBS_LOG_INFO(
        "sim.harness", "experiment started",
        obs::kv("environment",
                rf::environment_name(config.scenario.environment)),
        obs::kv("seed", config.seed),
        obs::kv("threads", config.threads),
        obs::kv("liquids", config.liquids.size()));

    const core::Wimi wimi = make_calibrated_wimi(config);
    WIMI_OBS_LOG_INFO("sim.harness", "calibration stage complete");
    const ml::Dataset data = build_feature_dataset(config, wimi);
    WIMI_OBS_LOG_INFO("sim.harness", "capture stage complete");

    std::vector<std::string> names;
    names.reserve(config.liquids.size());
    for (const rf::Liquid liquid : config.liquids) {
        names.emplace_back(rf::liquid_name(liquid));
    }
    ExperimentResult result =
        evaluate_dataset(data, config, std::move(names));
    WIMI_OBS_LOG_INFO("sim.harness", "evaluation stage complete",
                      obs::kv("accuracy", result.accuracy),
                      obs::kv("mean_recall", result.mean_recall));

    run.note("environment",
             std::string(rf::environment_name(config.scenario.environment)));
    run.note("accuracy", result.accuracy);
    run.note("mean_recall", result.mean_recall);
    run.note("log_run", obs::Logger::instance().run_id());
    run.append_to_default_ledger(config.run_ledger_path);
    return result;
}

core::Model train_experiment_model(const ExperimentConfig& config) {
    WIMI_TRACE_SPAN("harness.train_model");
    ensure(config.classifier == ClassifierKind::kSvm,
           "train_experiment_model: model export requires the SVM backend");
    core::Wimi wimi = make_calibrated_wimi(config);
    const ml::Dataset data = build_feature_dataset(config, wimi);
    for (std::size_t row = 0; row < data.size(); ++row) {
        const auto li = static_cast<std::size_t>(data.label(row));
        wimi.enroll_features(rf::liquid_name(config.liquids[li]),
                             data.features(row));
    }
    wimi.train();
    return serve::snapshot_model(wimi);
}

ModelPredictions predict_experiment(const serve::InferenceEngine& engine,
                                    const ExperimentConfig& config) {
    WIMI_TRACE_SPAN("harness.predict_model");
    // The model's class ids must mean the same liquids as this
    // experiment's labels, or the comparison silently pairs mismatched
    // classes.
    const std::vector<std::string>& names = engine.model().class_names;
    ensure(names.size() == config.liquids.size(),
           "predict_experiment: model class count does not match liquids");
    for (std::size_t i = 0; i < names.size(); ++i) {
        ensure(names[i] == rf::liquid_name(config.liquids[i]),
               "predict_experiment: model classes do not match the "
               "experiment's liquids");
    }

    const Scenario scenario(config.scenario);
    const std::vector<CaptureTask> tasks = draw_capture_tasks(config);
    const auto captures = exec::parallel_map<MeasurementPair>(
        tasks.size(),
        [&](std::size_t t) {
            return scenario.capture_measurement(
                tasks[t].liquid, tasks[t].session_seed, tasks[t].offset);
        },
        {.label = "harness.capture", .threads = config.threads});

    std::vector<serve::Observation> batch;
    batch.reserve(captures.size());
    for (const MeasurementPair& capture : captures) {
        batch.push_back({&capture.baseline, &capture.target});
    }
    const std::vector<serve::Prediction> predictions =
        engine.predict_batch(batch, {.threads = config.threads});

    ModelPredictions out;
    out.class_names = names;
    out.truth.reserve(tasks.size());
    out.predicted.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        out.truth.push_back(tasks[t].label);
        out.predicted.push_back(predictions[t].material_id);
    }
    return out;
}

}  // namespace wimi::sim
