#include "core/material_database.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace wimi::core {
namespace {

std::string sanitize_name(std::string_view name) {
    std::string out(name);
    std::replace(out.begin(), out.end(), ' ', '_');
    return out;
}

std::string desanitize_name(std::string name) {
    std::replace(name.begin(), name.end(), '_', ' ');
    return name;
}

}  // namespace

int MaterialDatabase::register_material(std::string_view name) {
    ensure(!name.empty(), "MaterialDatabase: empty material name");
    if (const auto existing = find_material(name)) {
        return *existing;
    }
    names_.emplace_back(name);
    return static_cast<int>(names_.size()) - 1;
}

std::optional<int> MaterialDatabase::find_material(
    std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            return static_cast<int>(i);
        }
    }
    return std::nullopt;
}

const std::string& MaterialDatabase::material_name(int id) const {
    ensure(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
           "MaterialDatabase: unknown material id");
    return names_[static_cast<std::size_t>(id)];
}

void MaterialDatabase::add_sample(int id, std::span<const double> features) {
    material_name(id);  // validates id
    data_.add(features, id);
}

void MaterialDatabase::save(const std::filesystem::path& path) const {
    std::ofstream out(path, std::ios::trunc);
    ensure(out.is_open(),
           "MaterialDatabase::save: cannot open " + path.string());
    out << "wimi-material-db 1\n";
    out << "materials " << names_.size() << '\n';
    for (std::size_t i = 0; i < names_.size(); ++i) {
        out << i << ' ' << sanitize_name(names_[i]) << '\n';
    }
    out << "samples " << data_.size() << ' ' << data_.feature_count()
        << '\n';
    out.precision(17);
    for (std::size_t row = 0; row < data_.size(); ++row) {
        out << data_.label(row);
        for (const double f : data_.features(row)) {
            out << ' ' << f;
        }
        out << '\n';
    }
    ensure(static_cast<bool>(out), "MaterialDatabase::save: write failure");
}

MaterialDatabase MaterialDatabase::load(const std::filesystem::path& path) {
    std::ifstream in(path);
    ensure(in.is_open(),
           "MaterialDatabase::load: cannot open " + path.string());
    std::string tag;
    int version = 0;
    in >> tag >> version;
    ensure(tag == "wimi-material-db" && version == 1,
           "MaterialDatabase::load: bad header");

    MaterialDatabase db;
    std::size_t n_materials = 0;
    in >> tag >> n_materials;
    ensure(tag == "materials", "MaterialDatabase::load: expected materials");
    for (std::size_t i = 0; i < n_materials; ++i) {
        std::size_t id = 0;
        std::string name;
        in >> id >> name;
        ensure(static_cast<bool>(in) && id == i,
               "MaterialDatabase::load: malformed material entry");
        db.names_.push_back(desanitize_name(std::move(name)));
    }

    std::size_t n_samples = 0;
    std::size_t width = 0;
    in >> tag >> n_samples >> width;
    ensure(tag == "samples" && static_cast<bool>(in),
           "MaterialDatabase::load: expected samples header");
    for (std::size_t s = 0; s < n_samples; ++s) {
        int label = 0;
        in >> label;
        std::vector<double> features(width);
        for (double& f : features) {
            in >> f;
        }
        ensure(static_cast<bool>(in),
               "MaterialDatabase::load: truncated sample data");
        db.add_sample(label, features);
    }
    return db;
}

}  // namespace wimi::core
