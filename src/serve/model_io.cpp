#include "serve/model_io.hpp"

#include <cmath>
#include <cstddef>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace wimi::serve {
namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kSectionFrameBytes = 4 + 8 + 4;  // id + len + crc

constexpr std::uint32_t kMagic = fourcc("WMDL");
constexpr std::uint32_t kSectionMeta = fourcc("META");
constexpr std::uint32_t kSectionCalib = fourcc("CALB");
constexpr std::uint32_t kSectionScaler = fourcc("SCAL");
constexpr std::uint32_t kSectionSvm = fourcc("SVMC");
constexpr std::uint32_t kSectionOrder[] = {kSectionMeta, kSectionCalib,
                                           kSectionScaler, kSectionSvm};

// Plausibility caps: a lying length field must not drive a huge
// allocation before the CRC gets a chance to reject the section.
constexpr std::uint32_t kMaxCount = 1u << 20;

constexpr const char* kFormat = "load_model";

bool read_bool(ByteReader& in) {
    const std::uint8_t v = in.u8();
    ensure(v <= 1, "load_model: boolean field out of range");
    return v == 1;
}

/// A count field, capped so corrupt values cannot drive allocations.
std::size_t read_count(ByteReader& in, const char* what) {
    const std::uint32_t v = in.u32();
    if (v > kMaxCount) {
        fail(std::string("load_model: implausible count for ") + what);
    }
    return v;
}

std::string hex64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xFu];
        v >>= 4;
    }
    return out;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/// Streaming 64-bit FNV-1a: fold `size` bytes into `state`.
///
/// The artifact digest deliberately does NOT reuse CRC-32. Every record
/// in the container ends with its own CRC-32 appended little-endian,
/// and CRC linearity makes exactly that layout self-cancelling: the
/// trailer's contribution to any whole-file CRC annihilates the
/// record content's, so a whole-file CRC-32 "digest" collapses to a
/// function of the record layout alone — identical for any two
/// same-shape artifacts, e.g. a model and its retrained replacement.
/// FNV-1a mixes multiplicatively and has no such cancellation.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state ^= bytes[i];
        state *= kFnvPrime;
    }
    return state;
}

double finite_or_throw(double v, const char* what) {
    ensure(std::isfinite(v),
           std::string("load_model: non-finite ") + what);
    return v;
}

// --- section encoders ----------------------------------------------------

void encode_meta(ByteWriter& out, const core::Model& model) {
    out.u32(0);  // flags, reserved
    out.u32(static_cast<std::uint32_t>(model.feature_width()));
    out.u32(static_cast<std::uint32_t>(model.class_names.size()));
    for (const std::string& name : model.class_names) {
        out.u32(static_cast<std::uint32_t>(name.size()));
        out.append(name);
    }
}

void encode_calib(ByteWriter& out, const core::Model& model) {
    const core::FeatureConfig& f = model.feature;
    out.f64(f.denoise.outlier_k_sigma);
    out.u8(f.denoise.remove_impulses ? 1 : 0);
    out.u64(f.denoise.wavelet.levels);
    out.u64(f.denoise.wavelet.max_iterations);
    out.f64(f.denoise.wavelet.noise_threshold_scale);
    out.u8(f.use_amplitude_denoising ? 1 : 0);
    out.i32(f.gamma.max_wraps);
    out.f64(f.gamma.min_abs_omega);
    out.f64(f.gamma.max_abs_omega);
    out.f64(f.phase_ridge_rad);
    out.u32(static_cast<std::uint32_t>(model.pairs.size()));
    for (const core::AntennaPair pair : model.pairs) {
        out.u32(static_cast<std::uint32_t>(pair.first));
        out.u32(static_cast<std::uint32_t>(pair.second));
    }
    out.u32(static_cast<std::uint32_t>(model.subcarriers.size()));
    for (const std::size_t sc : model.subcarriers) {
        out.u32(static_cast<std::uint32_t>(sc));
    }
}

void encode_scaler(ByteWriter& out, const core::Model& model) {
    const auto means = model.scaler.means();
    const auto stddevs = model.scaler.stddevs();
    out.u32(static_cast<std::uint32_t>(means.size()));
    for (const double m : means) {
        out.f64(m);
    }
    for (const double s : stddevs) {
        out.f64(s);
    }
}

void encode_svm(ByteWriter& out, const core::Model& model) {
    const ml::SvmConfig& config = model.svm.config();
    out.u32(static_cast<std::uint32_t>(config.kernel));
    out.f64(config.c);
    out.f64(config.gamma);
    out.f64(config.tolerance);
    out.u64(config.convergence_passes);
    out.u64(config.max_passes);
    out.u64(config.seed);
    const auto classes = model.svm.classes();
    out.u32(static_cast<std::uint32_t>(classes.size()));
    for (const int c : classes) {
        out.i32(c);
    }
    const auto machines = model.svm.machines();
    out.u32(static_cast<std::uint32_t>(machines.size()));
    for (const auto& machine : machines) {
        out.i32(machine.positive_label);
        out.i32(machine.negative_label);
        out.u32(static_cast<std::uint32_t>(machine.svm.width()));
        out.u32(static_cast<std::uint32_t>(machine.svm.alphas().size()));
        for (const double v : machine.svm.support_vectors()) {
            out.f64(v);
        }
        for (const double a : machine.svm.alphas()) {
            out.f64(a);
        }
        out.f64(machine.svm.bias());
    }
}

// --- section decoders ----------------------------------------------------

struct MetaSection {
    std::size_t feature_width = 0;
    std::vector<std::string> class_names;
};

MetaSection decode_meta(ByteReader in) {
    MetaSection meta;
    const std::uint32_t flags = in.u32();
    ensure(flags == 0, "load_model: unknown META flags");
    meta.feature_width = read_count(in, "feature width");
    const std::size_t classes = read_count(in, "class names");
    for (std::size_t i = 0; i < classes; ++i) {
        const std::size_t len = read_count(in, "class name length");
        meta.class_names.push_back(in.string(len, "string field"));
    }
    ensure(in.exhausted(), "load_model: trailing bytes in META");
    return meta;
}

struct CalibSection {
    core::FeatureConfig feature;
    std::vector<core::AntennaPair> pairs;
    std::vector<std::size_t> subcarriers;
};

CalibSection decode_calib(ByteReader in) {
    CalibSection calib;
    core::FeatureConfig& f = calib.feature;
    f.denoise.outlier_k_sigma = finite_or_throw(in.f64(), "outlier_k_sigma");
    f.denoise.remove_impulses = read_bool(in);
    f.denoise.wavelet.levels = in.u64();
    f.denoise.wavelet.max_iterations = in.u64();
    f.denoise.wavelet.noise_threshold_scale =
        finite_or_throw(in.f64(), "noise_threshold_scale");
    f.use_amplitude_denoising = read_bool(in);
    f.gamma.max_wraps = in.i32();
    f.gamma.min_abs_omega = finite_or_throw(in.f64(), "min_abs_omega");
    f.gamma.max_abs_omega = finite_or_throw(in.f64(), "max_abs_omega");
    f.phase_ridge_rad = finite_or_throw(in.f64(), "phase_ridge_rad");
    const std::size_t pair_count = read_count(in, "antenna pairs");
    for (std::size_t i = 0; i < pair_count; ++i) {
        core::AntennaPair pair;
        pair.first = in.u32();
        pair.second = in.u32();
        calib.pairs.push_back(pair);
    }
    const std::size_t sc_count = read_count(in, "subcarriers");
    for (std::size_t i = 0; i < sc_count; ++i) {
        calib.subcarriers.push_back(in.u32());
    }
    ensure(in.exhausted(), "load_model: trailing bytes in CALB");
    return calib;
}

ml::StandardScaler decode_scaler(ByteReader in) {
    const std::size_t width = read_count(in, "scaler width");
    std::vector<double> means = in.f64s(width, "scaler means");
    std::vector<double> stddevs = in.f64s(width, "scaler stddevs");
    ensure(in.exhausted(), "load_model: trailing bytes in SCAL");
    // restore() rejects non-finite or non-positive moments.
    return ml::StandardScaler::restore(std::move(means), std::move(stddevs));
}

ml::MulticlassSvm decode_svm(ByteReader in) {
    ml::SvmConfig config;
    const std::uint32_t kernel = in.u32();
    ensure(kernel <= static_cast<std::uint32_t>(ml::Kernel::kRbf),
           "load_model: unknown kernel id");
    config.kernel = static_cast<ml::Kernel>(kernel);
    config.c = finite_or_throw(in.f64(), "svm C");
    config.gamma = finite_or_throw(in.f64(), "svm gamma");
    config.tolerance = finite_or_throw(in.f64(), "svm tolerance");
    config.convergence_passes = in.u64();
    config.max_passes = in.u64();
    config.seed = in.u64();
    const std::size_t class_count = read_count(in, "svm classes");
    std::vector<int> classes;
    classes.reserve(class_count);
    for (std::size_t i = 0; i < class_count; ++i) {
        classes.push_back(in.i32());
    }
    const std::size_t machine_count = read_count(in, "svm machines");
    std::vector<ml::MulticlassSvm::PairMachine> machines;
    machines.reserve(machine_count);
    for (std::size_t m = 0; m < machine_count; ++m) {
        const int positive = in.i32();
        const int negative = in.i32();
        const std::size_t width = read_count(in, "machine width");
        const std::size_t sv_count = read_count(in, "support vectors");
        ensure(width >= 1 && sv_count >= 1,
               "load_model: empty pair machine");
        // f64s bounds-checks against the remaining bytes, so a lying
        // sv_count cannot allocate past the section.
        std::vector<double> svs = in.f64s(sv_count * width, "support vectors");
        std::vector<double> alphas = in.f64s(sv_count, "alphas");
        const double bias = in.f64();
        machines.push_back(
            {positive, negative,
             ml::BinarySvm::restore(config, width, std::move(svs),
                                    std::move(alphas), bias)});
    }
    ensure(in.exhausted(), "load_model: trailing bytes in SVMC");
    // restore() re-validates class ordering, pair coverage, and widths.
    return ml::MulticlassSvm::restore(config, std::move(classes),
                                      std::move(machines));
}

/// The summary of `model` alone: the version save_model writes, the
/// feature width, the class, pair, subcarrier and machine counts, and
/// the support-vector total. file_bytes and digest describe a file and
/// stay empty.
ModelInfo model_info(const core::Model& model) {
    ModelInfo info;
    info.version = kModelCurrentVersion;
    info.feature_width = model.feature_width();
    info.class_count = model.class_names.size();
    info.pair_count = model.pairs.size();
    info.subcarrier_count = model.subcarriers.size();
    info.machine_count = model.svm.machines().size();
    for (const auto& machine : model.svm.machines()) {
        info.support_vector_total += machine.svm.alphas().size();
    }
    return info;
}

}  // namespace

// --- writer -------------------------------------------------------------

void save_model(std::ostream& stream, const core::Model& model) {
    model.validate();

    // Each section record is its id, u64 body_bytes (stamped once the
    // body is written), the body, and a CRC-32 over the record.
    ByteWriter sections;
    const auto section = [&](std::uint32_t id,
                             void (*encode)(ByteWriter&, const core::Model&)) {
        const std::size_t start = sections.size();
        sections.u32(id);
        sections.u64(0);
        const std::size_t body = sections.size();
        encode(sections, model);
        sections.patch_u64(start + 4, sections.size() - body);
        sections.seal(start);
    };
    section(kSectionMeta, encode_meta);
    section(kSectionCalib, encode_calib);
    section(kSectionScaler, encode_scaler);
    section(kSectionSvm, encode_svm);

    ByteWriter header(kHeaderBytes);
    header.u32(kMagic);
    header.u32(kModelCurrentVersion);
    header.u32(kByteOrderMarker);
    header.u32(static_cast<std::uint32_t>(std::size(kSectionOrder)));
    header.u64(sections.size());
    header.seal();

    for (const ByteWriter* part : {&header, &sections}) {
        stream.write(reinterpret_cast<const char*>(part->bytes().data()),
                     static_cast<std::streamsize>(part->size()));
    }
    ensure(static_cast<bool>(stream), "save_model: stream failure");
}

void save_model_file(const std::filesystem::path& path,
                     const core::Model& model) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ensure(out.is_open(),
           "save_model_file: cannot open " + path.string());
    save_model(out, model);
    out.flush();
    ensure(static_cast<bool>(out),
           "save_model_file: write failure on " + path.string());
}

// --- reader -------------------------------------------------------------

core::Model load_model(std::istream& stream, ModelInfo* info) {
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string bytes = buffer.str();
    ensure(!stream.bad(), "load_model: stream failure");
    const std::span<const std::uint8_t> file(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());

    ensure(file.size() >= kHeaderBytes, "load_model: truncated header");
    ByteReader header(file.first(kHeaderBytes), kFormat);
    ensure(header.u32() == kMagic,
           "load_model: not a wimi.model file (bad magic)");
    const std::uint32_t version = header.u32();
    ensure(version == kModelVersion1,
           "load_model: unsupported wimi.model version " +
               std::to_string(version));
    ensure(header.u32() == kByteOrderMarker,
           "load_model: byte-order marker mismatch");
    const std::uint32_t section_count = header.u32();
    const std::uint64_t payload_bytes = header.u64();
    ensure(header.u32() == crc32(file.data(), kHeaderBytes - 4),
           "load_model: header checksum mismatch");
    ensure(section_count == std::size(kSectionOrder),
           "load_model: v1 requires exactly 4 sections");
    ensure(payload_bytes == file.size() - kHeaderBytes,
           "load_model: payload size mismatch (truncated or trailing "
           "bytes)");

    MetaSection meta;
    CalibSection calib;
    ml::StandardScaler scaler;
    ml::MulticlassSvm svm;

    std::size_t offset = kHeaderBytes;
    for (std::size_t s = 0; s < section_count; ++s) {
        ensure(file.size() - offset >= kSectionFrameBytes,
               "load_model: truncated section header");
        ByteReader frame(file.subspan(offset), kFormat);
        const std::uint32_t id = frame.u32();
        const std::uint64_t body_bytes = frame.u64();
        ensure(id == kSectionOrder[s],
               "load_model: unexpected section id or section order");
        ensure(frame.remaining() - 4 >= body_bytes,
               "load_model: truncated section body");
        const ByteReader body(frame.bytes(body_bytes, "section body"),
                              kFormat);
        const std::size_t record_bytes =
            kSectionFrameBytes + static_cast<std::size_t>(body_bytes);
        ensure(frame.u32() == crc32(file.data() + offset, record_bytes - 4),
               "load_model: section checksum mismatch");

        switch (id) {
            case kSectionMeta:
                meta = decode_meta(body);
                break;
            case kSectionCalib:
                calib = decode_calib(body);
                break;
            case kSectionScaler:
                scaler = decode_scaler(body);
                break;
            case kSectionSvm:
                svm = decode_svm(body);
                break;
        }
        offset += record_bytes;
    }
    ensure(offset == bytes.size(), "load_model: trailing bytes");

    core::Model model;
    model.feature = calib.feature;
    model.pairs = std::move(calib.pairs);
    model.subcarriers = std::move(calib.subcarriers);
    model.class_names = std::move(meta.class_names);
    model.scaler = std::move(scaler);
    model.svm = std::move(svm);
    ensure(model.feature_width() == meta.feature_width,
           "load_model: META feature width disagrees with scaler");
    model.validate();

    if (info != nullptr) {
        *info = model_info(model);
        info->version = version;
        info->file_bytes = bytes.size();
        info->digest =
            hex64(fnv1a64(bytes.data(), bytes.size(), kFnvOffset));
    }
    return model;
}

core::Model load_model_file(const std::filesystem::path& path,
                            ModelInfo* info) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "load_model_file: cannot open " + path.string());
    return load_model(in, info);
}

std::string model_file_digest(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(),
           "model_file_digest: cannot open " + path.string());
    std::uint64_t state = kFnvOffset;
    char chunk[4096];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
        state = fnv1a64(chunk, static_cast<std::size_t>(in.gcount()),
                        state);
        if (in.eof()) {
            break;
        }
    }
    ensure(!in.bad(), "model_file_digest: read failure");
    return hex64(state);
}

}  // namespace wimi::serve
