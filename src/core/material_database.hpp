// The material database (paper Sec. III-E).
//
// Stores labeled material-feature vectors collected during enrollment;
// the classifier trains on its contents. Persistable to a simple text
// format so a database built in one session can be reused in another.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"

namespace wimi::core {

/// Named, persistent store of material feature vectors.
class MaterialDatabase {
public:
    /// Registers (or finds) a material by name; returns its stable id.
    int register_material(std::string_view name);

    /// Id for `name`, if registered.
    std::optional<int> find_material(std::string_view name) const;

    /// Name for `id`. Throws wimi::Error for unknown ids.
    const std::string& material_name(int id) const;

    /// Adds one feature vector for material `id`. All samples must share
    /// one feature width.
    void add_sample(int id, std::span<const double> features);

    /// Number of registered materials.
    std::size_t material_count() const { return names_.size(); }

    /// Total stored samples.
    std::size_t sample_count() const { return data_.size(); }

    /// Feature width (0 until the first sample is added).
    std::size_t feature_count() const { return data_.feature_count(); }

    /// All registered names, indexed by id.
    std::span<const std::string> names() const { return names_; }

    /// The labeled dataset view used for training.
    const ml::Dataset& dataset() const { return data_; }

    /// Serialization. The format is line-oriented text:
    ///   wimi-material-db 1
    ///   materials <n>
    ///   <id> <name-with-underscores>
    ///   samples <m> <width>
    ///   <id> <f0> <f1> ...
    void save(const std::filesystem::path& path) const;
    static MaterialDatabase load(const std::filesystem::path& path);

private:
    std::vector<std::string> names_;
    ml::Dataset data_;
};

}  // namespace wimi::core
