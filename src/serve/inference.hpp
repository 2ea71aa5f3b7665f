// Load-once, predict-many inference over a persisted wimi.model.v1.
//
// The training path (core::Wimi) owns enrollment and calibration; the
// serving path answers "what material is this?" for a stream of
// measurements against a model that was trained earlier — possibly in a
// different process, on a different day. An InferenceEngine:
//
//   - holds one immutable core::Model (loaded via model_io, or
//     snapshotted in-process) plus its artifact digest;
//   - extracts features with the *persisted* calibration state, so a
//     prediction never depends on local Wimi configuration, and
//     classifies through the model's own classify();
//   - batches independent measurements through exec::parallel_map under
//     the repo determinism contract — threads=N is bit-identical to
//     threads=1, which runs the plain serial loop.
//
// Process-wide cache: load_cached() keys engines by canonical path so N
// call sites serving the same artifact share one deserialized model.
// A hit is revalidated against the file's current bytes — size + mtime
// fast path, whole-file digest when those moved — so a model retrained
// in place is reloaded, never served stale (the correctness foundation
// of the daemon's hot-reload). Obs: `serve.model_load_us` (histogram),
// `serve.cache.hits|misses|revalidations|stale_reloads` (counters),
// `serve.batch.requests` (counter), `serve.batch.size` and
// `serve.batch.wall_us` (histograms), plus the exec-layer
// `exec.serve.batch.*` stage metrics from the fan-out itself.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "csi/frame.hpp"
#include "serve/model_io.hpp"

namespace wimi::serve {

/// One (baseline, target) capture pair to classify. Non-owning: the
/// series must outlive the predict call.
struct Observation {
    const csi::CsiSeries* baseline = nullptr;
    const csi::CsiSeries* target = nullptr;
};

/// One classification answer.
using Prediction = core::IdentificationResult;

/// Options for batched prediction.
struct BatchOptions {
    /// Fan-out width: 0 = exec pool default / WIMI_THREADS, 1 = serial
    /// legacy path. Results are bit-identical at every width.
    std::size_t threads = 0;
};

/// Immutable trained model + prediction entry points.
class InferenceEngine {
public:
    /// Wraps an already-materialized model (validated). `digest` is the
    /// artifact identity for manifests; empty for in-process snapshots.
    explicit InferenceEngine(core::Model model, std::string digest = {});

    /// Loads a wimi.model.v1 artifact. Throws wimi::Error on any damage.
    /// Records `serve.model_load_us`.
    static InferenceEngine load(const std::filesystem::path& path);

    /// Like load(), but consults a process-wide cache keyed by canonical
    /// path: the first call deserializes, later calls share the engine.
    /// A hit is revalidated against the artifact's current size + mtime
    /// (and, when those changed, its digest), so an artifact rewritten
    /// in place yields a fresh engine instead of the stale cache entry.
    /// Records `serve.cache.hits` / `serve.cache.misses` /
    /// `serve.cache.revalidations` / `serve.cache.stale_reloads`.
    static std::shared_ptr<const InferenceEngine> load_cached(
        const std::filesystem::path& path);

    /// Drops every cached engine (test isolation).
    static void clear_cache();

    const core::Model& model() const { return model_; }
    const ModelInfo& info() const { return info_; }

    /// Content digest of the source artifact (ModelInfo::digest; "" for
    /// in-process snapshots).
    const std::string& digest() const { return info_.digest; }

    /// core::Model::features with the persisted calibration.
    std::vector<double> features(const csi::CsiSeries& baseline,
                                 const csi::CsiSeries& target) const {
        return model_.features(baseline, target);
    }

    /// core::Model::classify of a pre-extracted (unscaled) vector.
    Prediction predict_features(std::span<const double> features) const {
        return model_.classify(features);
    }

    /// Classifies one measurement.
    Prediction predict(const csi::CsiSeries& baseline,
                       const csi::CsiSeries& target) const {
        return model_.classify(model_.features(baseline, target));
    }

    /// Classifies a batch of independent measurements. Output order
    /// matches input order and is bit-identical at every thread width
    /// (exec determinism contract). Throws on any null Observation.
    std::vector<Prediction> predict_batch(
        std::span<const Observation> batch,
        const BatchOptions& options = {}) const;

private:
    core::Model model_;
    ModelInfo info_;
};

/// The cache key load_cached() uses for `path`: the weakly
/// canonical form, falling back to absolute().lexically_normal() when
/// canonicalization fails — so relative and absolute spellings of one
/// artifact always share a single cache slot.
std::string model_cache_key(const std::filesystem::path& path);

}  // namespace wimi::serve
