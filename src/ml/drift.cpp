#include "ml/drift.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace wimi::ml {
namespace {

/// Floor for bin proportions: keeps ln(p_cur / p_ref) finite when a bin
/// is empty on one side. With 10 bins the floor contributes at most
/// ~0.07 PSI per fully-vanished bin, far below the 0.25 alarm line.
constexpr double kEpsilon = 1e-4;

std::size_t bin_of(double value, const std::vector<double>& edges) {
    // edges are ascending interior cuts; values above the last edge land
    // in the final bin.
    const auto it = std::upper_bound(edges.begin(), edges.end(), value);
    return static_cast<std::size_t>(it - edges.begin());
}

}  // namespace

PsiReference make_psi_reference(const Dataset& data, std::size_t bins) {
    ensure(!data.empty(), "make_psi_reference: empty dataset");
    ensure(bins >= 2, "make_psi_reference: need at least 2 bins");
    const std::size_t features = data.feature_count();
    const std::size_t rows = data.size();

    PsiReference ref;
    ref.sample_count = rows;
    ref.edges.resize(features);
    ref.proportions.resize(features);

    std::vector<double> column(rows);
    for (std::size_t f = 0; f < features; ++f) {
        for (std::size_t row = 0; row < rows; ++row) {
            column[row] = data.features(row)[f];
        }
        std::sort(column.begin(), column.end());

        // Interior quantile cuts; duplicates collapse (constant or
        // discrete features end up with fewer, wider bins).
        std::vector<double>& edges = ref.edges[f];
        for (std::size_t b = 1; b < bins; ++b) {
            const std::size_t idx = std::min(
                rows - 1, b * rows / bins);
            const double cut = column[idx];
            if (edges.empty() || cut > edges.back()) {
                edges.push_back(cut);
            }
        }

        std::vector<double>& props = ref.proportions[f];
        props.assign(edges.size() + 1, 0.0);
        for (const double v : column) {
            props[bin_of(v, edges)] += 1.0;
        }
        for (double& p : props) {
            p /= static_cast<double>(rows);
        }
    }
    return ref;
}

std::vector<double> psi_per_feature(const PsiReference& ref,
                                    const Dataset& data) {
    ensure(!data.empty(), "psi_per_feature: empty dataset");
    ensure(ref.feature_count() == data.feature_count(),
           "psi_per_feature: feature count mismatch (reference " +
               std::to_string(ref.feature_count()) + ", data " +
               std::to_string(data.feature_count()) + ")");
    const std::size_t rows = data.size();

    std::vector<double> psi;
    psi.reserve(ref.feature_count());
    for (std::size_t f = 0; f < ref.feature_count(); ++f) {
        const std::vector<double>& edges = ref.edges[f];
        const std::vector<double>& ref_props = ref.proportions[f];
        std::vector<double> cur(ref_props.size(), 0.0);
        for (std::size_t row = 0; row < rows; ++row) {
            cur[bin_of(data.features(row)[f], edges)] += 1.0;
        }
        double total = 0.0;
        for (std::size_t b = 0; b < cur.size(); ++b) {
            const double p_cur =
                std::max(cur[b] / static_cast<double>(rows), kEpsilon);
            const double p_ref = std::max(ref_props[b], kEpsilon);
            total += (p_cur - p_ref) * std::log(p_cur / p_ref);
        }
        psi.push_back(total);
    }
    return psi;
}

double population_stability_index(const PsiReference& ref,
                                  const Dataset& data) {
    const std::vector<double> psi = psi_per_feature(ref, data);
    double sum = 0.0;
    for (const double v : psi) {
        sum += v;
    }
    return sum / static_cast<double>(psi.size());
}

OnlinePsiGate::OnlinePsiGate(PsiReference reference, Config config)
    : ref_(std::move(reference)), config_(config) {
    ensure(ref_.feature_count() > 0,
           "OnlinePsiGate: reference has no features");
    ensure(config_.capacity >= 1, "OnlinePsiGate: capacity must be >= 1");
    ensure(config_.min_samples >= 1 &&
               config_.min_samples <= config_.capacity,
           "OnlinePsiGate: need 1 <= min_samples <= capacity");
    counts_.resize(ref_.feature_count());
    for (std::size_t f = 0; f < ref_.feature_count(); ++f) {
        counts_[f].assign(ref_.proportions[f].size(), 0);
    }
}

void OnlinePsiGate::add(std::span<const double> features) {
    ensure(features.size() == ref_.feature_count(),
           "OnlinePsiGate::add: feature count mismatch (reference " +
               std::to_string(ref_.feature_count()) + ", vector " +
               std::to_string(features.size()) + ")");
    if (pool_.size() == config_.capacity) {
        const std::vector<std::uint32_t>& oldest = pool_.front();
        for (std::size_t f = 0; f < oldest.size(); ++f) {
            --counts_[f][oldest[f]];
        }
        pool_.pop_front();
    }
    std::vector<std::uint32_t> bins(features.size());
    for (std::size_t f = 0; f < features.size(); ++f) {
        bins[f] =
            static_cast<std::uint32_t>(bin_of(features[f], ref_.edges[f]));
        ++counts_[f][bins[f]];
    }
    pool_.push_back(std::move(bins));
    ++total_added_;
}

double OnlinePsiGate::psi() const {
    ensure(ready(), "OnlinePsiGate::psi: pool has " +
                        std::to_string(pool_.size()) + " vectors, need " +
                        std::to_string(config_.min_samples));
    const double rows = static_cast<double>(pool_.size());
    double sum = 0.0;
    for (std::size_t f = 0; f < ref_.feature_count(); ++f) {
        const std::vector<double>& ref_props = ref_.proportions[f];
        double total = 0.0;
        for (std::size_t b = 0; b < ref_props.size(); ++b) {
            const double p_cur = std::max(
                static_cast<double>(counts_[f][b]) / rows, kEpsilon);
            const double p_ref = std::max(ref_props[b], kEpsilon);
            total += (p_cur - p_ref) * std::log(p_cur / p_ref);
        }
        sum += total;
    }
    return sum / static_cast<double>(ref_.feature_count());
}

void OnlinePsiGate::reset() {
    pool_.clear();
    for (std::vector<std::uint32_t>& c : counts_) {
        std::fill(c.begin(), c.end(), 0);
    }
}

std::string psi_reference_to_json(const PsiReference& ref) {
    using obs::json::number;
    std::string out = "{\"schema\":\"wimi.psi_ref.v1\",\"sample_count\":";
    out += std::to_string(ref.sample_count);
    out += ",\"features\":[";
    for (std::size_t f = 0; f < ref.feature_count(); ++f) {
        if (f > 0) {
            out += ',';
        }
        out += "{\"edges\":[";
        for (std::size_t i = 0; i < ref.edges[f].size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += number(ref.edges[f][i]);
        }
        out += "],\"proportions\":[";
        for (std::size_t i = 0; i < ref.proportions[f].size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += number(ref.proportions[f][i]);
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

PsiReference psi_reference_from_json(std::string_view text) {
    const obs::json::Value doc = obs::json::parse(text);
    ensure(doc.is_object(), "psi reference: document must be an object");
    const obs::json::Value* schema = doc.find("schema");
    ensure(schema != nullptr && schema->is_string() &&
               schema->string == "wimi.psi_ref.v1",
           "psi reference: expected schema wimi.psi_ref.v1");

    PsiReference ref;
    if (const obs::json::Value* count = doc.find("sample_count")) {
        ensure(count->is_number() && count->num >= 0,
               "psi reference: bad sample_count");
        ref.sample_count = static_cast<std::size_t>(count->num);
    }
    const obs::json::Value* features = doc.find("features");
    ensure(features != nullptr && features->is_array(),
           "psi reference: missing features array");
    for (const obs::json::Value& feature : features->array) {
        const obs::json::Value* edges = feature.find("edges");
        const obs::json::Value* props = feature.find("proportions");
        ensure(edges != nullptr && edges->is_array() && props != nullptr &&
                   props->is_array(),
               "psi reference: feature missing edges/proportions");
        ensure(props->array.size() == edges->array.size() + 1,
               "psi reference: proportions must have edges+1 bins");
        std::vector<double> e;
        e.reserve(edges->array.size());
        for (const obs::json::Value& v : edges->array) {
            ensure(v.is_number(), "psi reference: non-numeric edge");
            ensure(e.empty() || v.num > e.back(),
                   "psi reference: edges must be strictly ascending");
            e.push_back(v.num);
        }
        std::vector<double> p;
        p.reserve(props->array.size());
        for (const obs::json::Value& v : props->array) {
            ensure(v.is_number() && v.num >= 0.0,
                   "psi reference: bad proportion");
            p.push_back(v.num);
        }
        ref.edges.push_back(std::move(e));
        ref.proportions.push_back(std::move(p));
    }
    return ref;
}

void save_psi_reference(const std::string& path, const PsiReference& ref) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ensure(out.good(), "psi reference: cannot open " + path);
    out << psi_reference_to_json(ref) << '\n';
    out.flush();
    ensure(out.good(), "psi reference: failed writing " + path);
}

PsiReference load_psi_reference(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.good(), "psi reference: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return psi_reference_from_json(buffer.str());
}

}  // namespace wimi::ml
