// Trained-model serialization: the `wimi.model.v1` container format.
//
// Persists a core::Model so training (slow, needs enrollment
// data) and inference (fast, packet-stream-by-packet-stream) can run in
// separate processes — the paper's deployment story of a calibrated
// device identifying materials in the field. The format follows the
// WCSI v2 conventions (csi/trace_io.hpp) and shares their field codec
// (common/bytes.hpp): every multi-byte field is explicitly
// little-endian, the header carries a byte-order marker, and every
// region is CRC-32 protected (src/common/crc32) so a flipped bit or torn
// write is a clean load error, never a silently wrong model.
//
// Unlike trace reading there is no lenient policy: a model is either
// bit-exact or rejected, because a partially recovered classifier is
// worse than none. A CRC is not a signature, so the loader also runs
// core::Model::validate(), which caps the CALB settings a hostile file
// could use to overflow a buffer size or a counter.
//
// wimi.model.v1 layout:
//
//   header (28 bytes):
//     offset  size  field
//          0     4  magic "WMDL"
//          4     4  u32 version (= 1)
//          8     4  u32 byte-order marker 0x01020304
//         12     4  u32 section_count (= 4 in v1)
//         16     8  u64 payload_bytes (total size of all sections)
//         24     4  u32 header CRC-32 over bytes [0, 24)
//
//   followed by exactly the sections META, CALB, SCAL, SVMC in that
//   order, each framed as:
//
//     0      4  u32 section id (ASCII fourcc, little-endian)
//     4      8  u64 body_bytes
//     12     N  body
//     12+N   4  u32 CRC-32 over bytes [0, 12+N) of this record
//
//   META — u32 flags (0), u32 feature_width, u32 class_count, then per
//          class: u32 name_bytes + UTF-8 name.
//   CALB — feature-extraction + calibration state: the FeatureConfig
//          fields (f64 outlier_k_sigma, u8 remove_impulses, u64 wavelet
//          levels (<= 16), u64 wavelet max_iterations,
//          f64 noise_threshold_scale, u8 use_amplitude_denoising,
//          i32 gamma max_wraps (0..16), f64 min_abs_omega,
//          f64 max_abs_omega, f64 phase_ridge_rad),
//          u32 pair_count + (u32 first, u32 second) per pair,
//          u32 subcarrier_count + u32 per subcarrier.
//   SCAL — u32 width, f64 means[width], f64 stddevs[width].
//   SVMC — SvmConfig (u32 kernel, f64 c, f64 gamma, f64 tolerance,
//          u64 convergence_passes, u64 max_passes, u64 seed; the
//          threads knob is runtime state and not persisted),
//          u32 class_count + i32 per class (sorted),
//          u32 machine_count, then per machine: i32 positive_label,
//          i32 negative_label, u32 width, u32 sv_count,
//          f64 support_vectors[sv_count * width], f64 alphas[sv_count],
//          f64 bias. Machines are in the canonical (a < b) pair order.
//
//   Doubles are the little-endian bytes of their IEEE-754 bit pattern.
//
// Compatibility policy: v1 is frozen. Any layout change — new fields,
// new sections, reordering — bumps the header version, and this reader
// rejects versions it does not know. Loaders must reject unknown
// section ids, out-of-order sections, and trailing bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>

#include "core/model.hpp"

namespace wimi::serve {

inline constexpr std::uint32_t kModelVersion1 = 1;
/// Version save_model emits.
inline constexpr std::uint32_t kModelCurrentVersion = kModelVersion1;

/// What a successful load found (for `wimi_model info` and manifests).
struct ModelInfo {
    std::uint32_t version = 0;
    std::uint64_t file_bytes = 0;
    /// 64-bit FNV-1a (hex) over the entire artifact — the model
    /// identity recorded in run manifests and served by the daemon.
    /// Not CRC-32: the per-record CRC trailers inside the container
    /// cancel record content out of any whole-file CRC, so a CRC
    /// digest would be identical for any two same-shape artifacts.
    std::string digest;
    std::size_t feature_width = 0;
    std::size_t class_count = 0;
    std::size_t pair_count = 0;
    std::size_t subcarrier_count = 0;
    std::size_t machine_count = 0;
    std::size_t support_vector_total = 0;
};

/// The summary of `model` alone: the version save_model writes, the
/// feature width, the class, pair, subcarrier and machine counts, and
/// the support-vector total. file_bytes and digest describe a file and
/// stay empty.
ModelInfo model_info(const core::Model& model);

/// Writes `model` to `stream`. Throws wimi::Error on an inconsistent
/// model (validate() fails) or stream failure.
void save_model(std::ostream& stream, const core::Model& model);

/// Writes `model` to `path`, overwriting any existing file.
void save_model_file(const std::filesystem::path& path,
                     const core::Model& model);

/// Reads a model from `stream`. Strict: any damage — bad magic, unknown
/// version, checksum mismatch, truncation, lying lengths, non-finite
/// values, semantic inconsistency — throws wimi::Error. The returned
/// model has passed core::Model::validate(). `info` (when non-null)
/// receives the artifact summary including its digest.
core::Model load_model(std::istream& stream, ModelInfo* info = nullptr);

/// Reads a model from `path`.
core::Model load_model_file(const std::filesystem::path& path,
                            ModelInfo* info = nullptr);

/// Content digest (64-bit FNV-1a, hex) of the artifact at `path`,
/// without decoding it. Matches ModelInfo::digest for a loadable file.
std::string model_file_digest(const std::filesystem::path& path);

}  // namespace wimi::serve
