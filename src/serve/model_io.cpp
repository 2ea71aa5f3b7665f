#include "serve/model_io.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace wimi::serve {
namespace {

constexpr std::uint32_t kByteOrderMarker = 0x01020304u;
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kSectionFrameBytes = 4 + 8 + 4;  // id + len + crc

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

constexpr std::uint32_t kMagic = fourcc('W', 'M', 'D', 'L');
constexpr std::uint32_t kSectionMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t kSectionCalib = fourcc('C', 'A', 'L', 'B');
constexpr std::uint32_t kSectionScaler = fourcc('S', 'C', 'A', 'L');
constexpr std::uint32_t kSectionSvm = fourcc('S', 'V', 'M', 'C');
constexpr std::uint32_t kSectionOrder[] = {kSectionMeta, kSectionCalib,
                                           kSectionScaler, kSectionSvm};

// Plausibility caps: a lying length field must not drive a huge
// allocation before the CRC gets a chance to reject the section.
constexpr std::uint32_t kMaxCount = 1u << 20;

// --- explicit little-endian field codec ---------------------------------

void put_u32_le(std::vector<unsigned char>& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<unsigned char>((v >> shift) & 0xFFu));
    }
}

void put_u64_le(std::vector<unsigned char>& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<unsigned char>((v >> shift) & 0xFFu));
    }
}

void put_i32_le(std::vector<unsigned char>& out, std::int32_t v) {
    put_u32_le(out, static_cast<std::uint32_t>(v));
}

void put_f64_le(std::vector<unsigned char>& out, double v) {
    put_u64_le(out, std::bit_cast<std::uint64_t>(v));
}

void put_u8(std::vector<unsigned char>& out, bool v) {
    out.push_back(v ? 1 : 0);
}

/// Bounds-checked reader over a decoded byte region. Every get_* call
/// verifies the remaining size first, so truncated or lying input is a
/// clean wimi::Error instead of an out-of-bounds read.
class Cursor {
public:
    Cursor(const unsigned char* data, std::size_t size)
        : data_(data), size_(size) {}

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

    std::uint32_t get_u32() {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i) {
            v = (v << 8) |
                static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t get_u64() {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i) {
            v = (v << 8) |
                static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 8;
        return v;
    }

    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
    double get_f64() { return std::bit_cast<double>(get_u64()); }

    bool get_u8_bool() {
        need(1, "u8");
        const unsigned char v = data_[pos_++];
        ensure(v <= 1, "load_model: boolean field out of range");
        return v == 1;
    }

    /// A count field, capped so corrupt values cannot drive allocations.
    std::size_t get_count(const char* what) {
        const std::uint32_t v = get_u32();
        ensure(v <= kMaxCount,
               std::string("load_model: implausible count for ") + what);
        return v;
    }

    std::string get_string(std::size_t bytes) {
        need(bytes, "string");
        std::string s(reinterpret_cast<const char*>(data_) + pos_, bytes);
        pos_ += bytes;
        return s;
    }

    std::vector<double> get_f64_array(std::size_t count, const char* what) {
        ensure(remaining() / 8 >= count,
               std::string("load_model: truncated ") + what);
        std::vector<double> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(get_f64());
        }
        return out;
    }

private:
    void need(std::size_t bytes, const char* what) {
        ensure(size_ - pos_ >= bytes,
               std::string("load_model: truncated ") + what + " field");
    }

    const unsigned char* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

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

std::vector<unsigned char> encode_meta(const core::Model& model) {
    std::vector<unsigned char> body;
    put_u32_le(body, 0);  // flags, reserved
    put_u32_le(body, static_cast<std::uint32_t>(model.feature_width()));
    put_u32_le(body, static_cast<std::uint32_t>(model.class_names.size()));
    for (const std::string& name : model.class_names) {
        put_u32_le(body, static_cast<std::uint32_t>(name.size()));
        body.insert(body.end(), name.begin(), name.end());
    }
    return body;
}

std::vector<unsigned char> encode_calib(const core::Model& model) {
    std::vector<unsigned char> body;
    const core::FeatureConfig& f = model.feature;
    put_f64_le(body, f.denoise.outlier_k_sigma);
    put_u8(body, f.denoise.remove_impulses);
    put_u64_le(body, f.denoise.wavelet.levels);
    put_u64_le(body, f.denoise.wavelet.max_iterations);
    put_f64_le(body, f.denoise.wavelet.noise_threshold_scale);
    put_u8(body, f.use_amplitude_denoising);
    put_i32_le(body, f.gamma.max_wraps);
    put_f64_le(body, f.gamma.min_abs_omega);
    put_f64_le(body, f.gamma.max_abs_omega);
    put_f64_le(body, f.phase_ridge_rad);
    put_u32_le(body, static_cast<std::uint32_t>(model.pairs.size()));
    for (const core::AntennaPair pair : model.pairs) {
        put_u32_le(body, static_cast<std::uint32_t>(pair.first));
        put_u32_le(body, static_cast<std::uint32_t>(pair.second));
    }
    put_u32_le(body, static_cast<std::uint32_t>(model.subcarriers.size()));
    for (const std::size_t sc : model.subcarriers) {
        put_u32_le(body, static_cast<std::uint32_t>(sc));
    }
    return body;
}

std::vector<unsigned char> encode_scaler(const core::Model& model) {
    std::vector<unsigned char> body;
    const auto means = model.scaler.means();
    const auto stddevs = model.scaler.stddevs();
    put_u32_le(body, static_cast<std::uint32_t>(means.size()));
    for (const double m : means) {
        put_f64_le(body, m);
    }
    for (const double s : stddevs) {
        put_f64_le(body, s);
    }
    return body;
}

std::vector<unsigned char> encode_svm(const core::Model& model) {
    std::vector<unsigned char> body;
    const ml::SvmConfig& config = model.svm.config();
    put_u32_le(body, static_cast<std::uint32_t>(config.kernel));
    put_f64_le(body, config.c);
    put_f64_le(body, config.gamma);
    put_f64_le(body, config.tolerance);
    put_u64_le(body, config.convergence_passes);
    put_u64_le(body, config.max_passes);
    put_u64_le(body, config.seed);
    const auto classes = model.svm.classes();
    put_u32_le(body, static_cast<std::uint32_t>(classes.size()));
    for (const int c : classes) {
        put_i32_le(body, c);
    }
    const auto machines = model.svm.machines();
    put_u32_le(body, static_cast<std::uint32_t>(machines.size()));
    for (const auto& machine : machines) {
        put_i32_le(body, machine.positive_label);
        put_i32_le(body, machine.negative_label);
        put_u32_le(body, static_cast<std::uint32_t>(machine.svm.width()));
        put_u32_le(body,
                   static_cast<std::uint32_t>(machine.svm.alphas().size()));
        for (const double v : machine.svm.support_vectors()) {
            put_f64_le(body, v);
        }
        for (const double a : machine.svm.alphas()) {
            put_f64_le(body, a);
        }
        put_f64_le(body, machine.svm.bias());
    }
    return body;
}

// --- section decoders ----------------------------------------------------

struct MetaSection {
    std::size_t feature_width = 0;
    std::vector<std::string> class_names;
};

MetaSection decode_meta(Cursor cursor) {
    MetaSection meta;
    const std::uint32_t flags = cursor.get_u32();
    ensure(flags == 0, "load_model: unknown META flags");
    meta.feature_width = cursor.get_count("feature width");
    const std::size_t classes = cursor.get_count("class names");
    for (std::size_t i = 0; i < classes; ++i) {
        const std::size_t len = cursor.get_count("class name length");
        meta.class_names.push_back(cursor.get_string(len));
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in META");
    return meta;
}

struct CalibSection {
    core::FeatureConfig feature;
    std::vector<core::AntennaPair> pairs;
    std::vector<std::size_t> subcarriers;
};

CalibSection decode_calib(Cursor cursor) {
    CalibSection calib;
    core::FeatureConfig& f = calib.feature;
    f.denoise.outlier_k_sigma =
        finite_or_throw(cursor.get_f64(), "outlier_k_sigma");
    f.denoise.remove_impulses = cursor.get_u8_bool();
    f.denoise.wavelet.levels = cursor.get_u64();
    f.denoise.wavelet.max_iterations = cursor.get_u64();
    f.denoise.wavelet.noise_threshold_scale =
        finite_or_throw(cursor.get_f64(), "noise_threshold_scale");
    f.use_amplitude_denoising = cursor.get_u8_bool();
    f.gamma.max_wraps = cursor.get_i32();
    f.gamma.min_abs_omega =
        finite_or_throw(cursor.get_f64(), "min_abs_omega");
    f.gamma.max_abs_omega =
        finite_or_throw(cursor.get_f64(), "max_abs_omega");
    f.phase_ridge_rad = finite_or_throw(cursor.get_f64(), "phase_ridge_rad");
    const std::size_t pair_count = cursor.get_count("antenna pairs");
    for (std::size_t i = 0; i < pair_count; ++i) {
        core::AntennaPair pair;
        pair.first = cursor.get_u32();
        pair.second = cursor.get_u32();
        calib.pairs.push_back(pair);
    }
    const std::size_t sc_count = cursor.get_count("subcarriers");
    for (std::size_t i = 0; i < sc_count; ++i) {
        calib.subcarriers.push_back(cursor.get_u32());
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in CALB");
    return calib;
}

ml::StandardScaler decode_scaler(Cursor cursor) {
    const std::size_t width = cursor.get_count("scaler width");
    std::vector<double> means = cursor.get_f64_array(width, "scaler means");
    std::vector<double> stddevs =
        cursor.get_f64_array(width, "scaler stddevs");
    ensure(cursor.exhausted(), "load_model: trailing bytes in SCAL");
    // restore() rejects non-finite or non-positive moments.
    return ml::StandardScaler::restore(std::move(means), std::move(stddevs));
}

ml::MulticlassSvm decode_svm(Cursor cursor) {
    ml::SvmConfig config;
    const std::uint32_t kernel = cursor.get_u32();
    ensure(kernel <= static_cast<std::uint32_t>(ml::Kernel::kRbf),
           "load_model: unknown kernel id");
    config.kernel = static_cast<ml::Kernel>(kernel);
    config.c = finite_or_throw(cursor.get_f64(), "svm C");
    config.gamma = finite_or_throw(cursor.get_f64(), "svm gamma");
    config.tolerance = finite_or_throw(cursor.get_f64(), "svm tolerance");
    config.convergence_passes = cursor.get_u64();
    config.max_passes = cursor.get_u64();
    config.seed = cursor.get_u64();
    const std::size_t class_count = cursor.get_count("svm classes");
    std::vector<int> classes;
    classes.reserve(class_count);
    for (std::size_t i = 0; i < class_count; ++i) {
        classes.push_back(cursor.get_i32());
    }
    const std::size_t machine_count = cursor.get_count("svm machines");
    std::vector<ml::MulticlassSvm::PairMachine> machines;
    machines.reserve(machine_count);
    for (std::size_t m = 0; m < machine_count; ++m) {
        const int positive = cursor.get_i32();
        const int negative = cursor.get_i32();
        const std::size_t width = cursor.get_count("machine width");
        const std::size_t sv_count = cursor.get_count("support vectors");
        ensure(width >= 1 && sv_count >= 1,
               "load_model: empty pair machine");
        // get_f64_array bounds-checks against the remaining bytes, so a
        // lying sv_count cannot allocate past the section.
        std::vector<double> svs =
            cursor.get_f64_array(sv_count * width, "support vectors");
        std::vector<double> alphas =
            cursor.get_f64_array(sv_count, "alphas");
        const double bias = cursor.get_f64();
        machines.push_back(
            {positive, negative,
             ml::BinarySvm::restore(config, width, std::move(svs),
                                    std::move(alphas), bias)});
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in SVMC");
    // restore() re-validates class ordering, pair coverage, and widths.
    return ml::MulticlassSvm::restore(config, std::move(classes),
                                      std::move(machines));
}

}  // namespace

// --- writer -------------------------------------------------------------

void save_model(std::ostream& stream, const core::Model& model) {
    model.validate();

    std::vector<std::vector<unsigned char>> sections;
    sections.push_back(encode_meta(model));
    sections.push_back(encode_calib(model));
    sections.push_back(encode_scaler(model));
    sections.push_back(encode_svm(model));

    std::uint64_t payload_bytes = 0;
    std::vector<std::vector<unsigned char>> records;
    for (std::size_t i = 0; i < sections.size(); ++i) {
        std::vector<unsigned char> record;
        record.reserve(sections[i].size() + kSectionFrameBytes);
        put_u32_le(record, kSectionOrder[i]);
        put_u64_le(record, sections[i].size());
        record.insert(record.end(), sections[i].begin(), sections[i].end());
        put_u32_le(record, crc32(record.data(), record.size()));
        payload_bytes += record.size();
        records.push_back(std::move(record));
    }

    std::vector<unsigned char> header;
    header.reserve(kHeaderBytes);
    put_u32_le(header, kMagic);
    put_u32_le(header, kModelCurrentVersion);
    put_u32_le(header, kByteOrderMarker);
    put_u32_le(header, static_cast<std::uint32_t>(records.size()));
    put_u64_le(header, payload_bytes);
    put_u32_le(header, crc32(header.data(), header.size()));

    stream.write(reinterpret_cast<const char*>(header.data()),
                 static_cast<std::streamsize>(header.size()));
    for (const auto& record : records) {
        stream.write(reinterpret_cast<const char*>(record.data()),
                     static_cast<std::streamsize>(record.size()));
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
    const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());

    ensure(bytes.size() >= kHeaderBytes, "load_model: truncated header");
    Cursor header(data, kHeaderBytes);
    ensure(header.get_u32() == kMagic,
           "load_model: not a wimi.model file (bad magic)");
    const std::uint32_t version = header.get_u32();
    ensure(version == kModelVersion1,
           "load_model: unsupported wimi.model version " +
               std::to_string(version));
    ensure(header.get_u32() == kByteOrderMarker,
           "load_model: byte-order marker mismatch");
    const std::uint32_t section_count = header.get_u32();
    const std::uint64_t payload_bytes = header.get_u64();
    const std::uint32_t header_crc = header.get_u32();
    ensure(header_crc == crc32(data, kHeaderBytes - 4),
           "load_model: header checksum mismatch");
    ensure(section_count == 4,
           "load_model: v1 requires exactly 4 sections");
    ensure(payload_bytes == bytes.size() - kHeaderBytes,
           "load_model: payload size mismatch (truncated or trailing "
           "bytes)");

    MetaSection meta;
    CalibSection calib;
    ml::StandardScaler scaler;
    ml::MulticlassSvm svm;

    std::size_t offset = kHeaderBytes;
    for (std::size_t s = 0; s < section_count; ++s) {
        ensure(bytes.size() - offset >= kSectionFrameBytes,
               "load_model: truncated section header");
        Cursor frame(data + offset, 4 + 8);
        const std::uint32_t id = frame.get_u32();
        const std::uint64_t body_bytes = frame.get_u64();
        ensure(id == kSectionOrder[s],
               "load_model: unexpected section id or section order");
        ensure(bytes.size() - offset - kSectionFrameBytes >= body_bytes,
               "load_model: truncated section body");
        const std::size_t record_bytes =
            kSectionFrameBytes + static_cast<std::size_t>(body_bytes);
        const std::uint32_t stored_crc =
            Cursor(data + offset + record_bytes - 4, 4).get_u32();
        ensure(stored_crc == crc32(data + offset, record_bytes - 4),
               "load_model: section checksum mismatch");

        Cursor body(data + offset + 12,
                    static_cast<std::size_t>(body_bytes));
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
        info->version = version;
        info->file_bytes = bytes.size();
        info->digest =
            hex64(fnv1a64(bytes.data(), bytes.size(), kFnvOffset));
        info->feature_width = model.feature_width();
        info->class_count = model.class_names.size();
        info->pair_count = model.pairs.size();
        info->subcarrier_count = model.subcarriers.size();
        info->machine_count = model.svm.machines().size();
        info->support_vector_total = 0;
        for (const auto& machine : model.svm.machines()) {
            info->support_vector_total += machine.svm.alphas().size();
        }
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
