// Round-trip and fault-injection corpus for the wimi.model.v1 reader.
//
// A persisted model must come back bit-exact, and a damaged one must be
// rejected with a clean wimi::Error — never a crash, never a silently
// wrong classifier. Mutations mirror tests/trace_fault_util.hpp: byte
// truncation (including every section boundary), seeded single-bit
// flips, torn writes, and lying-but-checksum-consistent headers. Run
// under WIMI_SANITIZE=address / undefined to turn "never UBs" into a
// checked property.
#include "serve/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "trace_fault_util.hpp"

namespace wimi::serve {
namespace {

constexpr std::size_t kHeaderBytes = 28;

/// A small but fully structured model: 2 pairs x 2 subcarriers = width
/// 4, three classes (3 pairwise machines), RBF-trained on a separable
/// synthetic dataset.
core::Model make_test_model() {
    Rng rng(5);
    ml::Dataset data(4);
    for (int cls = 0; cls < 3; ++cls) {
        for (int i = 0; i < 12; ++i) {
            std::vector<double> row(4);
            for (std::size_t j = 0; j < row.size(); ++j) {
                row[j] = 2.0 * cls + rng.gaussian(0.0, 0.3);
            }
            data.add(row, cls);
        }
    }
    core::Model model;
    model.pairs = {{0, 1}, {1, 2}};
    model.subcarriers = {3, 9};
    model.class_names = {"Milk", "Honey", "Oil"};
    model.scaler.fit(data);
    ml::MulticlassSvm svm;
    svm.train(model.scaler.transform(data));
    model.svm = std::move(svm);
    return model;
}

/// The test model's shape built from fixed numbers, not by training:
/// trained bytes differ between the SIMD flavours of the build, so only
/// a restored model pins the file format alone.
core::Model fixed_model() {
    ml::SvmConfig config;
    config.kernel = ml::Kernel::kRbf;
    config.c = 4.0;
    config.gamma = 0.25;
    config.tolerance = 1e-3;
    config.convergence_passes = 5;
    config.max_passes = 200;
    config.seed = 17;
    core::Model model;
    model.feature.denoise.outlier_k_sigma = 3.0;
    model.feature.denoise.remove_impulses = true;
    model.feature.denoise.wavelet.levels = 4;
    model.feature.denoise.wavelet.max_iterations = 32;
    model.feature.denoise.wavelet.noise_threshold_scale = 1.0;
    model.feature.use_amplitude_denoising = true;
    model.feature.gamma.max_wraps = 2;
    model.feature.gamma.min_abs_omega = 0.03;
    model.feature.gamma.max_abs_omega = 0.8;
    model.feature.phase_ridge_rad = 0.12;
    model.pairs = {{0, 1}, {1, 2}};
    model.subcarriers = {3, 9};
    model.class_names = {"Milk", "Honey", "Oil"};
    model.scaler = ml::StandardScaler::restore({0.5, -1.25, 2.0, 0.125},
                                               {1.5, 0.75, 2.5, 0.375});
    std::vector<ml::MulticlassSvm::PairMachine> machines;
    for (const auto& [positive, negative] :
         {std::pair{0, 1}, std::pair{0, 2}, std::pair{1, 2}}) {
        const double shift = 0.5 * (positive + negative);
        machines.push_back(
            {positive, negative,
             ml::BinarySvm::restore(
                 config, 4,
                 {-1.0 + shift, 0.25, 0.5, -0.75, 1.0, -0.5 + shift, 0.0,
                  2.0},
                 {0.625, -0.625}, -0.0625 * (positive + 1))});
    }
    model.svm = ml::MulticlassSvm::restore(config, {0, 1, 2},
                                           std::move(machines));
    return model;
}

std::string serialize(const core::Model& model) {
    std::ostringstream out;
    save_model(out, model);
    return out.str();
}

core::Model load_bytes(const std::string& bytes,
                       ModelInfo* info = nullptr) {
    std::istringstream in(bytes);
    return load_model(in, info);
}

/// Byte offsets where each section record starts, plus end-of-file.
std::vector<std::size_t> section_boundaries(const std::string& bytes) {
    std::vector<std::size_t> offsets;
    std::size_t offset = kHeaderBytes;
    while (offset + 12 <= bytes.size()) {
        offsets.push_back(offset);
        std::uint64_t body = 0;
        for (int i = 7; i >= 0; --i) {
            body = (body << 8) |
                   static_cast<unsigned char>(
                       bytes[offset + 4 + static_cast<std::size_t>(i)]);
        }
        offset += 12 + static_cast<std::size_t>(body) + 4;
    }
    offsets.push_back(bytes.size());
    return offsets;
}

/// Restamps the header CRC so a deliberately lying header stays
/// internally consistent (the fault CRC alone cannot catch).
std::string fix_header_crc(std::string bytes) {
    csi::fault::detail::put_u32_le(
        bytes, kHeaderBytes - 4, crc32(bytes.data(), kHeaderBytes - 4));
    return bytes;
}

/// Restamps the record CRC of the section starting at `offset`.
std::string fix_section_crc(std::string bytes, std::size_t offset) {
    std::uint64_t body = 0;
    for (int i = 7; i >= 0; --i) {
        body = (body << 8) |
               static_cast<unsigned char>(
                   bytes[offset + 4 + static_cast<std::size_t>(i)]);
    }
    const std::size_t payload = 12 + static_cast<std::size_t>(body);
    csi::fault::detail::put_u32_le(
        bytes, offset + payload, crc32(bytes.data() + offset, payload));
    return bytes;
}

void expect_rejected(const std::string& bytes) {
    EXPECT_THROW(load_bytes(bytes), Error);
}

TEST(ModelIo, RoundTripIsBitExact) {
    const core::Model model = make_test_model();
    ModelInfo info;
    const core::Model loaded = load_bytes(serialize(model), &info);

    EXPECT_EQ(loaded.class_names, model.class_names);
    ASSERT_EQ(loaded.pairs.size(), model.pairs.size());
    for (std::size_t i = 0; i < model.pairs.size(); ++i) {
        EXPECT_EQ(loaded.pairs[i].first, model.pairs[i].first);
        EXPECT_EQ(loaded.pairs[i].second, model.pairs[i].second);
    }
    EXPECT_EQ(loaded.subcarriers, model.subcarriers);

    ASSERT_EQ(loaded.scaler.means().size(), model.scaler.means().size());
    for (std::size_t j = 0; j < model.scaler.means().size(); ++j) {
        EXPECT_EQ(loaded.scaler.means()[j], model.scaler.means()[j]);
        EXPECT_EQ(loaded.scaler.stddevs()[j], model.scaler.stddevs()[j]);
    }

    const auto original = model.svm.machines();
    const auto restored = loaded.svm.machines();
    ASSERT_EQ(restored.size(), original.size());
    for (std::size_t m = 0; m < original.size(); ++m) {
        EXPECT_EQ(restored[m].positive_label, original[m].positive_label);
        EXPECT_EQ(restored[m].negative_label, original[m].negative_label);
        EXPECT_EQ(restored[m].svm.bias(), original[m].svm.bias());
        ASSERT_EQ(restored[m].svm.alphas().size(),
                  original[m].svm.alphas().size());
        for (std::size_t i = 0; i < original[m].svm.alphas().size(); ++i) {
            EXPECT_EQ(restored[m].svm.alphas()[i],
                      original[m].svm.alphas()[i]);
        }
        ASSERT_EQ(restored[m].svm.support_vectors().size(),
                  original[m].svm.support_vectors().size());
        for (std::size_t i = 0;
             i < original[m].svm.support_vectors().size(); ++i) {
            EXPECT_EQ(restored[m].svm.support_vectors()[i],
                      original[m].svm.support_vectors()[i]);
        }
    }

    // Decisions, not just parameters: probe vectors classify identically.
    Rng rng(11);
    for (int probe = 0; probe < 50; ++probe) {
        std::vector<double> x(model.feature_width());
        for (double& v : x) {
            v = rng.gaussian(3.0, 3.0);
        }
        const auto scaled_a = model.scaler.transform(x);
        const auto scaled_b = loaded.scaler.transform(x);
        EXPECT_EQ(scaled_a, scaled_b);
        EXPECT_EQ(model.svm.predict(scaled_a), loaded.svm.predict(scaled_b));
    }

    EXPECT_EQ(info.version, kModelVersion1);
    EXPECT_EQ(info.feature_width, model.feature_width());
    EXPECT_EQ(info.class_count, 3u);
    EXPECT_EQ(info.pair_count, 2u);
    EXPECT_EQ(info.subcarrier_count, 2u);
    EXPECT_EQ(info.machine_count, 3u);
    EXPECT_GT(info.support_vector_total, 0u);
    EXPECT_EQ(info.digest.size(), 16u);
}

TEST(ModelIo, SaveIsDeterministic) {
    const core::Model model = make_test_model();
    EXPECT_EQ(serialize(model), serialize(model));
}

/// 64-bit FNV-1a over every byte (not a CRC: each section ends with its
/// own CRC-32, which cancels the section's content out of any CRC over
/// the whole file).
std::uint64_t fnv1a64(const std::string& bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char byte : bytes) {
        hash ^= static_cast<unsigned char>(byte);
        hash *= 0x00000100000001b3ull;
    }
    return hash;
}

TEST(ModelIo, SavedBytesArePinned) {
    // Size and FNV-1a of the whole file pin every byte save_model writes.
    const std::string bytes = serialize(fixed_model());
    EXPECT_EQ(bytes.size(), 674u);
    EXPECT_EQ(fnv1a64(bytes), 0xe3b81accd9a89fceull)
        << std::hex << "0x" << fnv1a64(bytes) << "ull";
    // The pinned file loads back to the same bytes.
    EXPECT_EQ(serialize(load_bytes(bytes)), bytes);
}

TEST(ModelIo, FileRoundTripAndDigest) {
    const core::Model model = make_test_model();
    const auto path =
        std::filesystem::temp_directory_path() / "wimi_model_io_test.wmdl";
    save_model_file(path, model);
    ModelInfo info;
    const core::Model loaded = load_model_file(path, &info);
    EXPECT_EQ(loaded.class_names, model.class_names);
    // The standalone digest helper agrees with the loader's.
    EXPECT_EQ(model_file_digest(path), info.digest);
    std::filesystem::remove(path);
}

/// Regression: the digest used to be a whole-file CRC-32. Every record
/// in the container ends with its own CRC-32 trailer, and CRC linearity
/// makes that trailer cancel the record content's contribution to any
/// whole-file CRC — so two same-shape artifacts with different content
/// (different support vectors, honestly restamped section CRCs) hashed
/// to the *same* "digest", defeating cache revalidation and the
/// hot-swap identity. FNV-1a has no such cancellation.
TEST(ModelIo, DigestDistinguishesSameShapeContent) {
    const std::string bytes = serialize(make_test_model());
    const std::vector<std::size_t> boundaries = section_boundaries(bytes);
    ASSERT_GE(boundaries.size(), 2u);
    // Flip one body byte in the first section and restamp that
    // section's CRC: a same-length, internally consistent artifact
    // with different content — the retrained-in-place shape.
    std::string mutated = bytes;
    mutated[boundaries[0] + 12] =
        static_cast<char>(mutated[boundaries[0] + 12] ^ 0x01);
    mutated = fix_section_crc(std::move(mutated), boundaries[0]);
    ASSERT_NE(mutated, bytes);
    ASSERT_EQ(mutated.size(), bytes.size());

    const auto dir = std::filesystem::temp_directory_path();
    const auto path_a = dir / "wimi_model_io_digest_a.wmdl";
    const auto path_b = dir / "wimi_model_io_digest_b.wmdl";
    {
        std::ofstream(path_a, std::ios::binary) << bytes;
        std::ofstream(path_b, std::ios::binary) << mutated;
    }
    EXPECT_NE(model_file_digest(path_a), model_file_digest(path_b));
    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
}

TEST(ModelIo, TruncationAtEverySectionBoundaryRejected) {
    const std::string bytes = serialize(make_test_model());
    const std::vector<std::size_t> boundaries = section_boundaries(bytes);
    ASSERT_EQ(boundaries.size(), 5u);  // 4 sections + EOF
    for (const std::size_t boundary : boundaries) {
        for (const long delta : {-1L, 0L, 1L}) {
            const long cut = static_cast<long>(boundary) + delta;
            if (cut < 0 || cut >= static_cast<long>(bytes.size())) {
                continue;  // cutting nothing = intact file
            }
            expect_rejected(csi::fault::truncate_at(
                bytes, static_cast<std::size_t>(cut)));
        }
    }
}

TEST(ModelIo, TruncationAtEveryHeaderByteRejected) {
    const std::string bytes = serialize(make_test_model());
    for (std::size_t size = 0; size <= kHeaderBytes; ++size) {
        expect_rejected(csi::fault::truncate_at(bytes, size));
    }
}

TEST(ModelIo, EverySeededBitFlipRejected) {
    const std::string bytes = serialize(make_test_model());
    // Every region is CRC-protected, so any single flipped bit must be
    // caught. Sample 400 seeded positions across the artifact.
    Rng rng(23);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t bit =
            static_cast<std::size_t>(rng.next_u64() % (8 * bytes.size()));
        expect_rejected(csi::fault::flip_bit(bytes, bit));
    }
}

TEST(ModelIo, TornWritesRejected) {
    const std::string bytes = serialize(make_test_model());
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::size_t keep =
            (bytes.size() * static_cast<std::size_t>(seed)) / 9;
        expect_rejected(
            csi::fault::torn_write(bytes, keep, bytes.size() - keep, seed));
    }
}

TEST(ModelIo, LyingPayloadSizeRejectedWithoutHugeAllocation) {
    std::string bytes = serialize(make_test_model());
    // Header claims an absurd payload; CRC restamped so only the size
    // cross-check can object.
    csi::fault::detail::put_u64_le(bytes, 16,
                                   std::uint64_t{1} << 60);
    expect_rejected(fix_header_crc(bytes));
}

TEST(ModelIo, LyingSectionLengthRejected) {
    const std::string bytes = serialize(make_test_model());
    const std::vector<std::size_t> boundaries = section_boundaries(bytes);
    for (std::size_t s = 0; s + 1 < boundaries.size(); ++s) {
        std::string mutated = bytes;
        // Section claims to extend far past the file.
        csi::fault::detail::put_u64_le(mutated, boundaries[s] + 4,
                                       std::uint64_t{1} << 59);
        expect_rejected(mutated);
    }
}

TEST(ModelIo, LyingCountFieldRejected) {
    std::string bytes = serialize(make_test_model());
    const std::size_t meta_offset = kHeaderBytes;
    // META's class_count (after flags + feature_width) claims 2^20+1
    // entries; the record CRC is restamped so only the plausibility cap
    // or the bounds-checked cursor can object — no giant allocation.
    csi::fault::detail::put_u32_le(bytes, meta_offset + 12 + 8,
                                   (1u << 20) + 1);
    expect_rejected(fix_section_crc(bytes, meta_offset));
}

/// A copy of `bytes` with one CALB setting patched and the section's CRC
/// restamped: a hostile file that passes every checksum. CALB's body is
/// f64 outlier_k_sigma, u8 remove_impulses, u64 wavelet levels (+9),
/// u64 max_iterations, f64 noise_threshold_scale, u8
/// use_amplitude_denoising, then i32 gamma max_wraps (+34).
std::string with_calib_field(const std::string& bytes, std::size_t field,
                             std::uint64_t value, std::size_t width) {
    const std::size_t calib = section_boundaries(bytes)[1];
    std::string patched = bytes;
    if (width == 8) {
        csi::fault::detail::put_u64_le(patched, calib + 12 + field, value);
    } else {
        csi::fault::detail::put_u32_le(patched, calib + 12 + field,
                                       static_cast<std::uint32_t>(value));
    }
    return fix_section_crc(std::move(patched), calib);
}

TEST(ModelIo, HostileFeatureSettingsRejected) {
    // A CRC is not a signature. 2^62 wavelet levels would wrap the size
    // of the a-trous plane buffer and index past it; INT_MAX gamma wraps
    // would overflow the wrap search's counter. Both must be refused at
    // load, with an error that names the field.
    const std::string bytes = serialize(make_test_model());
    const struct {
        std::size_t field;
        std::uint64_t value;
        std::size_t width;
        const char* name;
    } cases[] = {
        {9, std::uint64_t{1} << 62, 8, "wavelet levels"},
        {9, 64, 8, "wavelet levels"},
        {34, 0x7FFFFFFFu, 4, "max_wraps"},
        {34, 0xFFFFFFFFu, 4, "max_wraps"},  // -1
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(std::string(c.name) + " = " + std::to_string(c.value));
        try {
            load_bytes(with_calib_field(bytes, c.field, c.value, c.width));
            ADD_FAILURE() << "loaded a hostile model";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
                << e.what();
        }
    }
    // The caps sit far above any value in use: 16 of each still loads.
    EXPECT_NO_THROW(load_bytes(with_calib_field(bytes, 9, 16, 8)));
    EXPECT_NO_THROW(load_bytes(with_calib_field(bytes, 34, 16, 4)));
}

TEST(ModelIo, UnknownVersionRejected) {
    std::string bytes = serialize(make_test_model());
    csi::fault::detail::put_u32_le(bytes, 4, 99);
    expect_rejected(fix_header_crc(bytes));
}

TEST(ModelIo, BadMagicRejected) {
    std::string bytes = serialize(make_test_model());
    bytes[0] = 'X';
    expect_rejected(fix_header_crc(bytes));
}

TEST(ModelIo, SwappedSectionOrderRejected) {
    const std::string bytes = serialize(make_test_model());
    const std::vector<std::size_t> boundaries = section_boundaries(bytes);
    ASSERT_GE(boundaries.size(), 3u);
    // Swap the first two whole section records: each stays individually
    // CRC-valid and the total payload size is unchanged, so only the
    // section-order check can reject.
    const std::string first =
        bytes.substr(boundaries[0], boundaries[1] - boundaries[0]);
    const std::string second =
        bytes.substr(boundaries[1], boundaries[2] - boundaries[1]);
    const std::string mutated = bytes.substr(0, boundaries[0]) + second +
                                first + bytes.substr(boundaries[2]);
    ASSERT_EQ(mutated.size(), bytes.size());
    expect_rejected(mutated);
}

TEST(ModelIo, TrailingBytesRejected) {
    std::string bytes = serialize(make_test_model());
    bytes.push_back('\0');
    expect_rejected(bytes);
}

TEST(ModelIo, EmptyAndGarbageStreamsRejected) {
    expect_rejected("");
    expect_rejected("not a model");
    Rng rng(31);
    std::string garbage;
    for (int i = 0; i < 4096; ++i) {
        garbage.push_back(static_cast<char>(rng.next_u64() & 0xFFu));
    }
    expect_rejected(garbage);
}

TEST(ModelIo, SaveRejectsInconsistentModel) {
    core::Model model = make_test_model();
    model.subcarriers.push_back(17);  // width no longer matches scaler
    std::ostringstream out;
    EXPECT_THROW(save_model(out, model), Error);
}

TEST(ModelIo, RestoreRejectsNonFiniteState) {
    EXPECT_THROW(ml::StandardScaler::restore(
                     {0.0, std::numeric_limits<double>::quiet_NaN()},
                     {1.0, 1.0}),
                 Error);
    EXPECT_THROW(
        ml::StandardScaler::restore({0.0, 0.0}, {1.0, 0.0}), Error);
    EXPECT_THROW(
        ml::BinarySvm::restore({}, 2, {1.0, 2.0},
                               {std::numeric_limits<double>::infinity()},
                               0.0),
        Error);
}

TEST(ModelIo, MissingFileThrows) {
    EXPECT_THROW(
        load_model_file("/nonexistent/dir/model.wmdl"), Error);
    EXPECT_THROW(
        model_file_digest("/nonexistent/dir/model.wmdl"), Error);
}

}  // namespace
}  // namespace wimi::serve
