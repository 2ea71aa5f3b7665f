#include "serve/inference.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <system_error>
#include <utility>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace wimi::serve {
namespace {

/// One cached engine plus the artifact identity it was loaded from.
/// size/mtime are the cheap staleness probe; the engine's digest is the
/// authoritative one when they moved.
struct CacheEntry {
    std::shared_ptr<const InferenceEngine> engine;
    std::uintmax_t file_size = 0;
    std::filesystem::file_time_type mtime;
};

std::mutex& cache_mutex() {
    static std::mutex m;
    return m;
}

std::map<std::string, CacheEntry>& cache() {
    static std::map<std::string, CacheEntry> c;
    return c;
}

/// stat() the artifact for the fast staleness probe. Returns false when
/// the file cannot be statted — the caller then falls through to a full
/// load, which reports the real error.
bool stat_artifact(const std::filesystem::path& path,
                   std::uintmax_t* file_size,
                   std::filesystem::file_time_type* mtime) {
    std::error_code size_ec;
    std::error_code time_ec;
    *file_size = std::filesystem::file_size(path, size_ec);
    *mtime = std::filesystem::last_write_time(path, time_ec);
    return !size_ec && !time_ec;
}

}  // namespace

std::string model_cache_key(const std::filesystem::path& path) {
    std::error_code ec;
    const std::filesystem::path canonical =
        std::filesystem::weakly_canonical(path, ec);
    if (!ec) {
        return canonical.string();
    }
    // weakly_canonical can fail (e.g. a regular file used as a path
    // component); normalize anyway so relative and absolute spellings
    // of the same artifact never occupy two cache slots.
    const std::filesystem::path absolute = std::filesystem::absolute(path, ec);
    if (!ec) {
        return absolute.lexically_normal().string();
    }
    return path.lexically_normal().string();
}

InferenceEngine::InferenceEngine(core::Model model, std::string digest)
    : model_(std::move(model)), digest_(std::move(digest)) {
    model_.validate();
}

InferenceEngine InferenceEngine::load(const std::filesystem::path& path) {
    const auto start = std::chrono::steady_clock::now();
    ModelInfo info;
    core::Model model = load_model_file(path, &info);
    InferenceEngine engine(std::move(model), info.digest);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    WIMI_OBS_HISTOGRAM("serve.model_load_us",
                       static_cast<double>(elapsed.count()));
    WIMI_OBS_LOG_INFO("serve.inference", "model loaded",
                      obs::kv("path", path.string()),
                      obs::kv("digest", info.digest),
                      obs::kv("classes", info.class_count),
                      obs::kv("support_vectors",
                              info.support_vector_total),
                      obs::kv("load_us", elapsed.count()));
    return engine;
}

std::shared_ptr<const InferenceEngine> InferenceEngine::load_cached(
    const std::filesystem::path& path) {
    const std::string key = model_cache_key(path);
    // Every filesystem touch below goes through the normalized key
    // path, so an aliased spelling ("dir/../model.wmdl") behaves
    // identically on a cache hit and a cache miss.
    const std::filesystem::path resolved(key);
    std::uintmax_t file_size = 0;
    std::filesystem::file_time_type mtime;
    const bool statted = stat_artifact(resolved, &file_size, &mtime);

    bool cached = false;
    {
        std::lock_guard<std::mutex> lock(cache_mutex());
        auto it = cache().find(key);
        if (it != cache().end()) {
            cached = true;
            if (statted && it->second.file_size == file_size &&
                it->second.mtime == mtime) {
                WIMI_OBS_COUNT("serve.cache.hits", 1);
                return it->second.engine;
            }
        }
    }

    if (cached && statted) {
        // size/mtime moved: the digest decides. A rewrite of identical
        // bytes (e.g. an idempotent re-save) keeps the entry; anything
        // else is a stale engine that must not be served.
        const std::string digest = model_file_digest(resolved);
        std::lock_guard<std::mutex> lock(cache_mutex());
        auto it = cache().find(key);
        if (it != cache().end() && it->second.engine->digest() == digest) {
            it->second.file_size = file_size;
            it->second.mtime = mtime;
            WIMI_OBS_COUNT("serve.cache.hits", 1);
            WIMI_OBS_COUNT("serve.cache.revalidations", 1);
            return it->second.engine;
        }
    }

    WIMI_OBS_COUNT("serve.cache.misses", 1);
    if (cached) {
        WIMI_OBS_COUNT("serve.cache.stale_reloads", 1);
        WIMI_OBS_LOG_INFO("serve.inference", "cached model went stale",
                          obs::kv("path", key));
    }
    // Deserialize outside the lock; if two threads race on the same
    // load, the last insert wins and earlier callers keep a coherent
    // (same-bytes) engine alive through their shared_ptr.
    auto engine = std::make_shared<const InferenceEngine>(load(resolved));
    // Re-stat *after* the load: the load succeeded, so these bytes are
    // what the engine holds (a mid-load rewrite fails the model CRC).
    stat_artifact(resolved, &file_size, &mtime);
    std::lock_guard<std::mutex> lock(cache_mutex());
    CacheEntry& entry = cache()[key];
    entry.engine = std::move(engine);
    entry.file_size = file_size;
    entry.mtime = mtime;
    return entry.engine;
}

void InferenceEngine::clear_cache() {
    std::lock_guard<std::mutex> lock(cache_mutex());
    cache().clear();
}

std::vector<Prediction> InferenceEngine::predict_batch(
    std::span<const Observation> batch, const BatchOptions& options) const {
    for (const Observation& obs : batch) {
        ensure(obs.baseline != nullptr && obs.target != nullptr,
               "InferenceEngine::predict_batch: null observation");
    }
    WIMI_OBS_COUNT("serve.batch.requests", 1);
    WIMI_OBS_HISTOGRAM("serve.batch.size", static_cast<double>(batch.size()));
    const auto start = std::chrono::steady_clock::now();
    exec::ExecOptions exec_options;
    exec_options.label = "serve.batch";
    exec_options.threads = options.threads;
    // Each observation is independent and writes only its own slot, so
    // the exec determinism contract holds trivially: no pre-fan-out
    // draws, index-ordered collection.
    std::vector<Prediction> predictions = exec::parallel_map<Prediction>(
        batch.size(),
        [&](std::size_t i) {
            return predict(*batch[i].baseline, *batch[i].target);
        },
        exec_options);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    WIMI_OBS_HISTOGRAM("serve.batch.wall_us",
                       static_cast<double>(elapsed.count()));
    WIMI_OBS_LOG_DEBUG("serve.inference", "batch predicted",
                       ::wimi::obs::kv("batch_size", batch.size()),
                       ::wimi::obs::kv("wall_us", elapsed.count()));
    return predictions;
}

}  // namespace wimi::serve
