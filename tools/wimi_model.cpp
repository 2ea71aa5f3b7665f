// wimi_model — train, inspect, verify, and serve wimi.model.v1 artifacts.
//
// The "train once, infer many" workflow from the command line:
//
//   wimi_model train <model.wmdl> [--env hall|lab|library] [--reps N]
//                    [--seed S] [--threads T] [--golden-out expected.json]
//                    [--run-out ledger.jsonl]
//       Runs the standard simulated enrollment campaign, trains the
//       scaler + one-vs-one SVM on every measurement, and persists the
//       bundle. With --golden-out, also classifies a held-out capture
//       schedule (seed S+1) in this process and records every prediction
//       to a wimi.golden.v1 JSON — the reference a later `predict
//       --expect` run (typically a fresh process) must reproduce
//       bit-identically.
//
//   wimi_model info <model.wmdl>      artifact summary (digest, shapes)
//   wimi_model verify <model.wmdl>    integrity check; exit 0 iff loadable
//
//   wimi_model predict <model.wmdl> [--env E] [--reps N] [--seed S]
//                      [--threads T] [--expect expected.json]
//                      [--run-out ledger.jsonl]
//       Loads the model (once, via the process-wide cache), captures the
//       configured measurement schedule, and classifies it in one batch.
//       With --expect, the run settings come from the golden file and
//       every prediction is compared element-wise; exit 0 iff all match.
//
// Both train and predict append a wimi.run.v1 manifest (including the
// model digest) to the run ledger when --run-out or WIMI_RUN_LEDGER
// names one.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"
#include "rf/environment.hpp"
#include "serve/inference.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"

namespace {

using namespace wimi;

/// CLI settings shared by train and predict.
struct Options {
    std::string env = "lab";
    std::size_t reps = 12;
    std::uint64_t seed = 7;
    std::size_t threads = 0;
    std::string golden_out;
    std::string expect;
    std::string run_out;
};

rf::Environment parse_environment(const std::string& name) {
    if (name == "hall") {
        return rf::Environment::kHall;
    }
    if (name == "library") {
        return rf::Environment::kLibrary;
    }
    if (name == "lab") {
        return rf::Environment::kLab;
    }
    fail("unknown environment (use hall | lab | library)");
}

sim::ExperimentConfig make_config(const Options& options,
                                  std::uint64_t seed) {
    sim::ExperimentConfig config;
    config.scenario.environment = parse_environment(options.env);
    config.repetitions = options.reps;
    config.seed = seed;
    config.threads = options.threads;
    config.wimi.threads = options.threads;
    return config;
}

/// Parses the flags after the fixed positional arguments.
Options parse_options(int argc, char** argv, int first_flag) {
    Options options;
    if ((argc - first_flag) % 2 != 0) {
        fail("a flag is missing its value");
    }
    for (int i = first_flag; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--env") {
            options.env = value;
            parse_environment(value);  // validate early
        } else if (flag == "--reps") {
            options.reps = std::stoul(value);
            ensure(options.reps >= 1, "--reps must be >= 1");
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--threads") {
            options.threads = std::stoul(value);
        } else if (flag == "--golden-out") {
            options.golden_out = value;
        } else if (flag == "--expect") {
            options.expect = value;
        } else if (flag == "--run-out") {
            options.run_out = value;
        } else {
            fail("unknown flag " + std::string(flag));
        }
    }
    return options;
}

/// Writes the wimi.golden.v1 reference: the run settings needed to
/// rebuild the evaluation schedule plus every (truth, predicted) pair.
void write_golden(const std::string& path, const Options& options,
                  std::uint64_t eval_seed, const std::string& model_digest,
                  const sim::ModelPredictions& predictions) {
    std::ostringstream out;
    out << "{\"format\":\"wimi.golden.v1\""
        << ",\"environment\":\"" << obs::json::escape(options.env) << '"'
        << ",\"repetitions\":" << options.reps
        << ",\"eval_seed\":" << eval_seed
        << ",\"model_digest\":\"" << obs::json::escape(model_digest) << '"'
        << ",\"classes\":[";
    for (std::size_t i = 0; i < predictions.class_names.size(); ++i) {
        out << (i > 0 ? "," : "") << '"'
            << obs::json::escape(predictions.class_names[i]) << '"';
    }
    out << "],\"truth\":[";
    for (std::size_t i = 0; i < predictions.truth.size(); ++i) {
        out << (i > 0 ? "," : "") << predictions.truth[i];
    }
    out << "],\"predicted\":[";
    for (std::size_t i = 0; i < predictions.predicted.size(); ++i) {
        out << (i > 0 ? "," : "") << predictions.predicted[i];
    }
    out << "]}";
    std::ofstream file(path, std::ios::trunc);
    ensure(file.is_open(), "cannot open " + path);
    file << out.str() << '\n';
    ensure(static_cast<bool>(file), "write failure on " + path);
}

/// Reads back a wimi.golden.v1 document.
struct Golden {
    Options options;  ///< env/reps restored; seed = eval schedule seed
    std::string model_digest;
    std::vector<int> truth;
    std::vector<int> predicted;
};

std::vector<int> int_array(const obs::json::Value& doc, const char* key) {
    const obs::json::Value* value = doc.find(key);
    ensure(value != nullptr && value->is_array(),
           std::string("golden file: missing array ") + key);
    std::vector<int> out;
    out.reserve(value->array.size());
    for (const obs::json::Value& item : value->array) {
        ensure(item.is_number(),
               std::string("golden file: non-number in ") + key);
        out.push_back(static_cast<int>(item.num));
    }
    return out;
}

Golden read_golden(const std::string& path) {
    std::ifstream file(path);
    ensure(file.is_open(), "cannot open " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const obs::json::Value doc = obs::json::parse(buffer.str());
    const obs::json::Value* format = doc.find("format");
    ensure(format != nullptr && format->is_string() &&
               format->string == "wimi.golden.v1",
           "golden file: not a wimi.golden.v1 document");

    Golden golden;
    const obs::json::Value* env = doc.find("environment");
    ensure(env != nullptr && env->is_string(),
           "golden file: missing environment");
    golden.options.env = env->string;
    const obs::json::Value* reps = doc.find("repetitions");
    ensure(reps != nullptr && reps->is_number(),
           "golden file: missing repetitions");
    golden.options.reps = static_cast<std::size_t>(reps->num);
    const obs::json::Value* seed = doc.find("eval_seed");
    ensure(seed != nullptr && seed->is_number(),
           "golden file: missing eval_seed");
    golden.options.seed = static_cast<std::uint64_t>(seed->num);
    const obs::json::Value* digest = doc.find("model_digest");
    ensure(digest != nullptr && digest->is_string(),
           "golden file: missing model_digest");
    golden.model_digest = digest->string;
    golden.truth = int_array(doc, "truth");
    golden.predicted = int_array(doc, "predicted");
    ensure(golden.truth.size() == golden.predicted.size(),
           "golden file: truth/predicted size mismatch");
    return golden;
}

void print_confusion(const sim::ModelPredictions& predictions) {
    std::size_t correct = 0;
    TextTable table({"material", "measurements", "correct"});
    for (std::size_t c = 0; c < predictions.class_names.size(); ++c) {
        std::size_t total = 0;
        std::size_t hits = 0;
        for (std::size_t i = 0; i < predictions.truth.size(); ++i) {
            if (predictions.truth[i] != static_cast<int>(c)) {
                continue;
            }
            ++total;
            if (predictions.predicted[i] == predictions.truth[i]) {
                ++hits;
            }
        }
        correct += hits;
        table.add_row({predictions.class_names[c], std::to_string(total),
                       std::to_string(hits)});
    }
    table.print(std::cout);
    const double accuracy =
        predictions.truth.empty()
            ? 0.0
            : static_cast<double>(correct) /
                  static_cast<double>(predictions.truth.size());
    std::cout << "accuracy: " << format_percent(accuracy) << " ("
              << correct << "/" << predictions.truth.size() << ")\n";
}

int cmd_train(const std::string& path, const Options& options) {
    obs::set_enabled(true);
    obs::RunContext run("wimi_model.train");
    run.set_seed(options.seed);
    run.set_threads(options.threads);

    const sim::ExperimentConfig config = make_config(options, options.seed);
    run.set_config(sim::serialize_config(config));

    const core::Model model = sim::train_experiment_model(config);
    serve::save_model_file(path, model);
    const std::string digest = serve::model_file_digest(path);
    std::cout << "trained " << model.class_names.size() << "-class model ("
              << model.feature_width() << " features) -> " << path
              << " (digest " << digest << ")\n";

    if (!options.golden_out.empty()) {
        // Held-out schedule: same settings, next seed — the reference a
        // fresh-process `predict --expect` must reproduce exactly.
        const std::uint64_t eval_seed = options.seed + 1;
        const sim::ExperimentConfig eval_config =
            make_config(options, eval_seed);
        const serve::InferenceEngine engine(model, digest);
        const sim::ModelPredictions predictions =
            sim::predict_experiment(engine, eval_config);
        write_golden(options.golden_out, options, eval_seed, digest,
                     predictions);
        std::cout << "golden reference (" << predictions.truth.size()
                  << " predictions, eval seed " << eval_seed << ") -> "
                  << options.golden_out << '\n';
    }

    run.note("model", path);
    run.note("model_digest", digest);
    run.append_to_default_ledger(options.run_out);
    return 0;
}

int cmd_info(const std::string& path) {
    serve::ModelInfo info;
    const core::Model model = serve::load_model_file(path, &info);
    std::cout << path << ":\n"
              << "  format:          wimi.model.v" << info.version << '\n'
              << "  size:            " << info.file_bytes << " bytes\n"
              << "  digest:          " << info.digest << '\n'
              << "  feature width:   " << info.feature_width << '\n'
              << "  antenna pairs:   " << info.pair_count << '\n'
              << "  subcarriers:     " << info.subcarrier_count << '\n'
              << "  classes:         " << info.class_count << " (";
    for (std::size_t i = 0; i < model.class_names.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << model.class_names[i];
    }
    std::cout << ")\n"
              << "  SVM machines:    " << info.machine_count << '\n'
              << "  support vectors: " << info.support_vector_total << '\n';
    return 0;
}

/// Exit 0 iff the artifact loads back bit-exact (header + every section
/// CRC, finite values, consistent shapes).
int cmd_verify(const std::string& path) {
    try {
        serve::ModelInfo info;
        serve::load_model_file(path, &info);
        std::cout << path << ": OK (wimi.model.v" << info.version
                  << ", digest " << info.digest << ")\n";
        return 0;
    } catch (const std::exception& e) {
        std::cout << path << ": DAMAGED (" << e.what() << ")\n";
        return 1;
    }
}

int cmd_predict(const std::string& path, Options options) {
    obs::set_enabled(true);

    std::string expected_digest;
    std::vector<int> expected_predictions;
    if (!options.expect.empty()) {
        const Golden golden = read_golden(options.expect);
        // The golden's run settings win: the point is to reproduce that
        // exact schedule. --threads stays caller-controlled because
        // results must not depend on it.
        options.env = golden.options.env;
        options.reps = golden.options.reps;
        options.seed = golden.options.seed;
        expected_digest = golden.model_digest;
        expected_predictions = golden.predicted;
    }

    obs::RunContext run("wimi_model.predict");
    run.set_seed(options.seed);
    run.set_threads(options.threads);
    const sim::ExperimentConfig config = make_config(options, options.seed);
    run.set_config(sim::serialize_config(config));

    const auto engine = serve::InferenceEngine::load_cached(path);
    ensure(expected_digest.empty() || engine->digest() == expected_digest,
           "model digest does not match the golden reference (different "
           "artifact?)");

    const sim::ModelPredictions predictions =
        sim::predict_experiment(*engine, config);
    print_confusion(predictions);

    run.note("model", path);
    run.note("model_digest", engine->digest());
    run.append_to_default_ledger(options.run_out);

    if (!expected_predictions.empty()) {
        if (predictions.predicted != expected_predictions) {
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < predictions.predicted.size() &&
                                    i < expected_predictions.size();
                 ++i) {
                mismatches +=
                    predictions.predicted[i] != expected_predictions[i];
            }
            std::cout << "golden: MISMATCH (" << mismatches << " of "
                      << expected_predictions.size()
                      << " predictions differ)\n";
            return 1;
        }
        std::cout << "golden: MATCH (" << expected_predictions.size()
                  << " predictions reproduced exactly)\n";
    }
    return 0;
}

int usage() {
    std::cerr
        << "usage:\n"
        << "  wimi_model train <model.wmdl> [--env hall|lab|library]"
        << " [--reps N] [--seed S] [--threads T]"
        << " [--golden-out expected.json] [--run-out ledger.jsonl]\n"
        << "  wimi_model info <model.wmdl>\n"
        << "  wimi_model verify <model.wmdl>\n"
        << "  wimi_model predict <model.wmdl> [--env hall|lab|library]"
        << " [--reps N] [--seed S] [--threads T]"
        << " [--expect expected.json] [--run-out ledger.jsonl]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string_view command = argv[1];
    const std::string path = argv[2];
    try {
        if (command == "train") {
            return cmd_train(path, parse_options(argc, argv, 3));
        }
        if (command == "info") {
            return cmd_info(path);
        }
        if (command == "verify") {
            return cmd_verify(path);
        }
        if (command == "predict") {
            return cmd_predict(path, parse_options(argc, argv, 3));
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
