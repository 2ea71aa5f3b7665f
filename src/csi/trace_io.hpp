// CSI trace serialization: the WCSI container format.
//
// A versioned binary container for CsiSeries, playing the role of the
// .dat trace files the Linux 802.11n CSI Tool produces: examples record
// simulated captures to disk and replay them through the pipeline,
// exercising the same store-then-process workflow as the real system.
// Receiver-side corruption is the norm on real capture hardware, so the
// current format (v2) is built to *detect* damage instead of trusting
// the bytes, and the reader is built to *degrade* instead of aborting.
//
// WCSI v2 layout — every multi-byte field explicitly little-endian:
//
//   offset  size  field
//        0     4  magic "WCSI"
//        4     4  u32 version (= 2)
//        8     4  u32 byte-order marker 0x01020304
//       12     4  u32 antenna_count
//       16     4  u32 subcarrier_count
//       20     8  u64 frame_count
//       28     4  u32 header CRC-32 over bytes [0, 28)
//
// Each frame is a fixed-size record (16 + 16*antennas*subcarriers + 4
// bytes): f64 timestamp | f64 rssi | antennas*subcarriers * (f64 re,
// f64 im) | u32 CRC-32 over the preceding payload bytes of this frame.
// Doubles are serialized as the little-endian bytes of their IEEE-754
// bit pattern.
//
// WCSI v1 (legacy, still readable and writable): magic | u32 version
// (= 1) | u32 antennas | u32 subcarriers | u64 frame_count | frames of
// f64 timestamp | f64 rssi | payload doubles — no byte-order marker and
// no checksums. v1 files were produced by native raw writes on
// little-endian hosts, so the explicit little-endian decoder reads them
// bit-identically.
//
// The layout lives in one byte codec in trace_io.cpp (its public face is
// the "byte codec" section below): write_trace, TraceWriter, TraceReader,
// stream::TraceTailer and the wimi_serve wire records (serve/wire) all
// encode and decode headers and frame records through it, directly in
// their own buffers. Its fields are stored and loaded by the little-endian
// helpers of common/bytes.hpp, which the wire and model formats share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::csi {

inline constexpr std::uint32_t kTraceVersion1 = 1;
inline constexpr std::uint32_t kTraceVersion2 = 2;
/// Version write_trace emits by default.
inline constexpr std::uint32_t kTraceCurrentVersion = kTraceVersion2;

/// How the reader reacts to corruption (CRC mismatch, non-finite
/// payload, mid-frame truncation).
enum class ReadPolicy {
    /// Throw wimi::Error at the first problem. Default: matches the
    /// historical reader, right for tests and offline analysis.
    kStrict,
    /// Drop damaged frames, keep reading: every intact frame is
    /// recovered and the report says exactly what was dropped. Right
    /// for bulk ingestion where one torn write must not sink a capture.
    kSkipCorrupt,
    /// Return the clean prefix: reading stops at the first damaged
    /// frame without throwing. Right when trailing data after damage
    /// is suspect (e.g. appends to a torn file).
    kStopAtCorruption,
};

struct TraceReadOptions {
    ReadPolicy policy = ReadPolicy::kStrict;
};

/// What a read actually recovered. All counters are zero and the flags
/// benign for a pristine trace.
struct TraceReadReport {
    std::uint32_t version = 0;
    std::uint32_t antenna_count = 0;
    std::uint32_t subcarrier_count = 0;
    /// Frame count the header promises.
    std::uint64_t frames_declared = 0;
    /// Frames decoded and handed to the caller.
    std::uint64_t frames_recovered = 0;
    /// Frames present in the stream but dropped (CRC mismatch,
    /// non-finite values, or cut off mid-record).
    std::uint64_t frames_skipped = 0;
    /// CRC mismatches seen (header + frames).
    std::uint64_t crc_failures = 0;
    /// Frames whose decoded doubles contained NaN/Inf.
    std::uint64_t non_finite_frames = 0;
    /// False when the v2 header checksum failed — dimensions and
    /// frame count above are then untrustworthy and no frames are read.
    bool header_ok = true;
    /// Stream ended before the declared frame count.
    bool truncated = false;
    /// kStopAtCorruption hit damage and returned the clean prefix.
    bool stopped_at_corruption = false;

    /// True iff the trace read back exactly as written.
    bool clean() const {
        return header_ok && !truncated && !stopped_at_corruption &&
               frames_skipped == 0 && crc_failures == 0 &&
               non_finite_frames == 0 &&
               frames_recovered == frames_declared;
    }
};

struct TraceWriteOptions {
    /// kTraceVersion2 (checksummed, default) or kTraceVersion1 (legacy).
    std::uint32_t version = kTraceCurrentVersion;
};

// --- byte codec ---------------------------------------------------------

/// Header size in bytes: 24 for v1, 32 for v2 (which adds the byte-order
/// marker and the header CRC).
constexpr std::size_t trace_header_bytes(std::uint32_t version) {
    return version == kTraceVersion2 ? 4 + 4 + 4 + 4 + 4 + 8 + 4
                                     : 4 + 4 + 4 + 4 + 8;
}

/// Size of one frame record: 16 + 16 * antennas * subcarriers, plus the
/// 4-byte CRC in v2.
constexpr std::size_t trace_record_bytes(std::uint32_t version,
                                         std::size_t antennas,
                                         std::size_t subcarriers) {
    return 16 + 16 * antennas * subcarriers +
           (version == kTraceVersion2 ? 4 : 0);
}

/// Size of the whole container write_trace emits for `series`.
std::size_t trace_bytes(const CsiSeries& series,
                        std::uint32_t version = kTraceCurrentVersion);

/// The fields of a container header.
struct TraceHeader {
    std::uint32_t version = kTraceCurrentVersion;
    std::uint32_t antenna_count = 0;
    std::uint32_t subcarrier_count = 0;
    std::uint64_t frame_count = 0;
};

/// What decode_trace_header found, in the order it checks.
enum class TraceHeaderStatus {
    kOk,
    /// Fewer than 8 bytes, or the magic is not "WCSI".
    kBadMagic,
    /// A version other than 1 or 2.
    kBadVersion,
    /// Fewer bytes than the version's header.
    kTruncated,
    /// v2 byte-order marker is not 0x01020304.
    kByteOrderMismatch,
    /// v2 header CRC does not match.
    kCrcMismatch,
    /// Zero or over-cap dimensions, or an over-cap frame count.
    kImplausible,
};

/// Parses the header at the front of `bytes` into `header`. Past the
/// magic, `header.version` holds the stored version whatever the result,
/// so a reader holding only the first 8 bytes (kTruncated) learns how
/// many more to fetch. The other fields are set only on kOk.
TraceHeaderStatus decode_trace_header(std::span<const std::uint8_t> bytes,
                                      TraceHeader& header);

/// What decode_frame_record found.
enum class FrameRecordStatus { kOk, kCrcMismatch, kNonFinite };

/// Decodes one record into `frame`, which must already have the
/// container's geometry, with `record` exactly its record size. v2 checks
/// the CRC before decoding anything; every record is then checked for
/// non-finite values. `frame` holds no meaningful values unless kOk.
FrameRecordStatus decode_frame_record(std::span<const std::uint8_t> record,
                                      std::uint32_t version, CsiFrame& frame);

/// Writes the container for `series` into `out`, which must be exactly
/// trace_bytes(series, version) long: the bytes write_trace emits, with
/// the same checks and errors.
void encode_trace(const CsiSeries& series, std::span<std::uint8_t> out,
                  std::uint32_t version = kTraceCurrentVersion);

/// Parses one container that fills `bytes` exactly: read_trace under
/// kStrict over memory, with the same checks and error messages. Before
/// it allocates any frame it also requires bytes.size() to equal header +
/// frame_count * record, so a frame count that disagrees with the length
/// and trailing bytes after the last frame are errors too.
CsiSeries decode_trace(std::span<const std::uint8_t> bytes);

// --- streams and files ---------------------------------------------------

/// Writes `series` to `stream`. Throws wimi::Error on inconsistent
/// series dimensions, non-finite values, an unsupported version, or
/// stream failure.
void write_trace(std::ostream& stream, const CsiSeries& series,
                 const TraceWriteOptions& options = {});

/// Writes `series` to `path`, overwriting any existing file.
void write_trace_file(const std::filesystem::path& path,
                      const CsiSeries& series,
                      const TraceWriteOptions& options = {});

/// Reads a whole series from `stream` under `options.policy`. Under
/// kStrict any malformed input throws wimi::Error; under the lenient
/// policies damaged frames are dropped or reading stops early, and
/// `report` (when non-null) receives the exact accounting. Every
/// returned series has passed CsiSeries::validate() and a finite-values
/// check per frame.
CsiSeries read_trace(std::istream& stream,
                     const TraceReadOptions& options = {},
                     TraceReadReport* report = nullptr);

/// Reads a series from `path`.
CsiSeries read_trace_file(const std::filesystem::path& path,
                          const TraceReadOptions& options = {},
                          TraceReadReport* report = nullptr);

/// Streaming frame-at-a-time writer: the producer-side dual of
/// TraceReader, for recorders that do not hold the whole series in
/// memory (and for monitors that *tail* the file while it grows).
///
/// The constructor writes a v2 header declaring 0 frames; append()
/// serializes one frame record and then re-stamps the header's frame
/// count (+ header CRC), so the file on disk is a complete, valid WCSI
/// v2 container after every append — a reader that opens it mid-growth
/// sees exactly the frames that have fully landed. close() flushes and
/// detaches; the destructor closes silently.
class TraceWriter {
public:
    /// Opens `path` (truncating) and writes the v2 header for the given
    /// geometry with frame_count = 0. Throws wimi::Error on I/O failure
    /// or zero dimensions.
    TraceWriter(const std::filesystem::path& path,
                std::size_t antenna_count, std::size_t subcarrier_count);
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /// Appends one frame and re-stamps the header so the file stays a
    /// valid container. Throws on geometry mismatch, non-finite values,
    /// I/O failure, or a closed writer.
    void append(const CsiFrame& frame);

    /// Frames appended so far.
    std::uint64_t frames_written() const { return frames_written_; }

    /// Final flush; the writer cannot append afterwards. Idempotent.
    void close();

private:
    void stamp_header();

    std::ofstream stream_;
    std::size_t antennas_ = 0;
    std::size_t subcarriers_ = 0;
    std::uint64_t frames_written_ = 0;
    bool open_ = false;
    std::vector<std::uint8_t> record_;  // one frame record, reused
};

/// Streaming frame-at-a-time reader over an open stream — the chunked
/// core read_trace() wraps. Ingestion paths that do not want the whole
/// series in memory pull frames one by one:
///
///   TraceReader reader(stream, {ReadPolicy::kSkipCorrupt});
///   while (auto frame = reader.next()) consume(*frame);
///   report(reader.report());
class TraceReader {
public:
    /// Parses and validates the header. Under kStrict a malformed
    /// header throws wimi::Error; under the lenient policies a trace
    /// whose header fails its checksum or plausibility checks yields
    /// header_ok() == false and next() returns nullopt immediately.
    /// A stream that is not a WCSI container at all (bad magic or an
    /// unknown version) always throws — there is nothing to salvage.
    explicit TraceReader(std::istream& stream,
                         TraceReadOptions options = {});

    std::uint32_t version() const { return report_.version; }
    std::size_t antenna_count() const { return report_.antenna_count; }
    std::size_t subcarrier_count() const {
        return report_.subcarrier_count;
    }
    std::uint64_t frames_declared() const {
        return report_.frames_declared;
    }
    bool header_ok() const { return report_.header_ok; }

    /// Next intact frame under the policy, or nullopt when the trace is
    /// exhausted (or reading stopped per policy). Under kStrict throws
    /// on the first damaged frame.
    std::optional<CsiFrame> next();

    /// Accounting so far; final once next() has returned nullopt.
    const TraceReadReport& report() const { return report_; }

private:
    void read_header();
    bool fill_frame_buffer();

    std::istream& stream_;
    TraceReadOptions options_;
    TraceReadReport report_;
    std::vector<std::uint8_t> buffer_;  // one frame record
    std::uint64_t frames_consumed_ = 0;  // records pulled off the stream
    bool done_ = false;
};

}  // namespace wimi::csi
