// Tests for the persistent material database.
#include "core/material_database.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"

namespace wimi::core {
namespace {

TEST(MaterialDatabase, RegisterAndFind) {
    MaterialDatabase db;
    const int water = db.register_material("Pure water");
    const int milk = db.register_material("Milk");
    EXPECT_NE(water, milk);
    EXPECT_EQ(db.register_material("Pure water"), water);  // idempotent
    EXPECT_EQ(db.material_count(), 2u);
    EXPECT_EQ(db.find_material("Milk"), milk);
    EXPECT_EQ(db.find_material("Coke"), std::nullopt);
    EXPECT_EQ(db.material_name(water), "Pure water");
    EXPECT_THROW(db.material_name(99), Error);
    EXPECT_THROW(db.register_material(""), Error);
}

TEST(MaterialDatabase, SamplesAccumulate) {
    MaterialDatabase db;
    const int id = db.register_material("Honey");
    db.add_sample(id, std::vector<double>{0.6, 0.61});
    db.add_sample(id, std::vector<double>{0.59, 0.62});
    EXPECT_EQ(db.sample_count(), 2u);
    EXPECT_EQ(db.dataset().rows_with_label(id).size(), 2u);
    EXPECT_EQ(db.feature_count(), 2u);
    EXPECT_THROW(db.add_sample(42, std::vector<double>{0.0, 0.0}), Error);
    EXPECT_THROW(db.add_sample(id, std::vector<double>{0.0}), Error);
}

TEST(MaterialDatabase, DatasetViewMatches) {
    MaterialDatabase db;
    const int a = db.register_material("A");
    const int b = db.register_material("B");
    db.add_sample(a, std::vector<double>{1.0});
    db.add_sample(b, std::vector<double>{2.0});
    const auto& data = db.dataset();
    EXPECT_EQ(data.size(), 2u);
    EXPECT_EQ(data.label(0), a);
    EXPECT_EQ(data.label(1), b);
}

TEST(MaterialDatabase, SaveLoadRoundTrip) {
    MaterialDatabase db;
    const int water = db.register_material("Pure water");
    const int sweet = db.register_material("Sweet water");
    db.add_sample(water, std::vector<double>{-0.143, -0.145, -0.141});
    db.add_sample(sweet, std::vector<double>{-0.196, -0.199, -0.192});
    db.add_sample(water, std::vector<double>{-0.144, -0.142, -0.146});

    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_material_db_test.txt";
    db.save(path);
    const auto loaded = MaterialDatabase::load(path);
    std::filesystem::remove(path);

    EXPECT_EQ(loaded.material_count(), 2u);
    EXPECT_EQ(loaded.sample_count(), 3u);
    EXPECT_EQ(loaded.material_name(water), "Pure water");  // spaces kept
    EXPECT_EQ(loaded.dataset().rows_with_label(water).size(), 2u);
    for (std::size_t row = 0; row < db.dataset().size(); ++row) {
        EXPECT_EQ(loaded.dataset().label(row), db.dataset().label(row));
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_DOUBLE_EQ(loaded.dataset().features(row)[j],
                             db.dataset().features(row)[j]);
        }
    }
}

TEST(MaterialDatabase, LoadRejectsGarbage) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_material_db_garbage.txt";
    {
        std::ofstream out(path);
        out << "this is not a database\n";
    }
    EXPECT_THROW(MaterialDatabase::load(path), Error);
    std::filesystem::remove(path);
    EXPECT_THROW(MaterialDatabase::load("/nonexistent/db.txt"), Error);
}

TEST(MaterialDatabase, LoadRejectsTruncatedSamples) {
    const auto path = std::filesystem::temp_directory_path() /
                      "wimi_material_db_truncated.txt";
    {
        std::ofstream out(path);
        out << "wimi-material-db 1\n"
            << "materials 1\n"
            << "0 Water\n"
            << "samples 2 3\n"
            << "0 1.0 2.0 3.0\n";  // second sample missing
    }
    EXPECT_THROW(MaterialDatabase::load(path), Error);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace wimi::core
