// Feature-vector drift detection via the population stability index.
//
// A reference feature distribution (per-feature decile bins captured
// from a known-good run) is stored on disk; later runs bin their own
// feature vectors against it and report PSI — sum over bins of
// (p_cur - p_ref) * ln(p_cur / p_ref), averaged across features. The
// conventional reading: < 0.1 stable, 0.1–0.25 moderate shift, > 0.25
// the population has moved. A drifting simulator, a broken
// pre-processing stage, or a receiver-side change all move the feature
// distribution before they move accuracy, so the harness publishes PSI
// as a gauge and `wimi_regress` gates it like any other metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"

namespace wimi::ml {

/// Stored reference distribution: per-feature bin edges (interior
/// quantile cuts of the reference sample) and per-feature reference
/// proportions (edges.size() + 1 bins, summing to 1).
struct PsiReference {
    std::vector<std::vector<double>> edges;        ///< per feature
    std::vector<std::vector<double>> proportions;  ///< per feature
    std::size_t sample_count = 0;  ///< rows the reference was built from

    std::size_t feature_count() const { return edges.size(); }
};

/// Builds a reference with `bins` quantile bins per feature. Requires a
/// non-empty dataset and bins >= 2.
PsiReference make_psi_reference(const Dataset& data, std::size_t bins = 10);

/// PSI of each feature of `data` against the reference. Requires
/// matching feature counts and a non-empty dataset. Bin proportions are
/// floored at a small epsilon so empty bins do not produce infinities.
std::vector<double> psi_per_feature(const PsiReference& ref,
                                    const Dataset& data);

/// Mean PSI across features — the one-number drift score.
double population_stability_index(const PsiReference& ref,
                                  const Dataset& data);

/// Streaming PSI over a bounded pool of recent feature vectors.
///
/// The batch entry points above re-bin a whole Dataset per call; a
/// per-window stream wants O(features) work per vector and O(capacity)
/// memory total. The gate keeps per-feature bin *counts*: adding a
/// vector binary-searches each feature into its reference bin and
/// increments, evicting the oldest vector decrements, and psi() reads
/// the counts directly. For the same pool contents psi() equals
/// population_stability_index() on a Dataset of those rows exactly
/// (same bins, same epsilon floor, same mean over features).
///
/// The streaming pipeline gates decision smoothing once the gate is
/// ready() and psi() passes the threshold: when the recent feature
/// population has moved off the training distribution, per-window labels
/// are extrapolation, and a label flip should not be trusted as a
/// material change.
struct PsiGateConfig {
    std::size_t capacity = 64;     ///< pool size (evict beyond this)
    std::size_t min_samples = 8;   ///< psi() undefined before this
    double threshold = 0.25;       ///< conventional "moved" line
};

class OnlinePsiGate {
public:
    using Config = PsiGateConfig;

    /// Requires a reference with >= 1 feature, capacity >= 1, and
    /// 1 <= min_samples <= capacity.
    explicit OnlinePsiGate(PsiReference reference, Config config = {});

    /// Folds one feature vector into the pool (evicting the oldest when
    /// full). The vector length must match the reference.
    void add(std::span<const double> features);

    /// Vectors currently pooled (<= capacity).
    std::size_t size() const { return pool_.size(); }

    /// Total vectors ever added (including evicted ones).
    std::uint64_t total_added() const { return total_added_; }

    /// True once the pool holds >= min_samples vectors.
    bool ready() const { return pool_.size() >= config_.min_samples; }

    /// Mean PSI across features for the pooled vectors; requires ready().
    double psi() const;

    /// Empties the pool (reference and config stay).
    void reset();

    const Config& config() const { return config_; }
    const PsiReference& reference() const { return ref_; }

private:
    PsiReference ref_;
    Config config_;
    /// Per-sample bin indices, feature-major, oldest first.
    std::deque<std::vector<std::uint32_t>> pool_;
    /// counts_[f][b] = pooled vectors whose feature f landed in bin b.
    std::vector<std::vector<std::uint32_t>> counts_;
    std::uint64_t total_added_ = 0;
};

/// Serialization (`wimi.psi_ref.v1` JSON).
std::string psi_reference_to_json(const PsiReference& ref);
PsiReference psi_reference_from_json(std::string_view text);

/// File round-trip. Throws wimi::Error on I/O or parse failure.
void save_psi_reference(const std::string& path, const PsiReference& ref);
PsiReference load_psi_reference(const std::string& path);

}  // namespace wimi::ml
