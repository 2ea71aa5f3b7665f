#include "csi/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::csi {
namespace {

constexpr std::uint32_t kMagic = fourcc("WCSI");

constexpr std::size_t kHeaderBytesV2 = trace_header_bytes(kTraceVersion2);
// Magic + version: enough to know which header follows.
constexpr std::size_t kPrefixBytes = 8;

// Plausibility caps: a corrupt header must not drive a multi-GB
// allocation. Real captures are 3 antennas x 30 subcarriers; these are
// three orders of magnitude above any conceivable array.
constexpr std::uint32_t kMaxDimension = 65535;
constexpr std::uint64_t kMaxFrames = 100'000'000ULL;

/// The strict readers' message for a rejected header.
std::string header_error(TraceHeaderStatus status, std::uint32_t version) {
    switch (status) {
        case TraceHeaderStatus::kOk:
            break;
        case TraceHeaderStatus::kBadMagic:
            return "read_trace: bad magic (not a WCSI trace)";
        case TraceHeaderStatus::kBadVersion:
            return "read_trace: unsupported version " +
                   std::to_string(version);
        case TraceHeaderStatus::kTruncated:
            return "read_trace: truncated header";
        case TraceHeaderStatus::kByteOrderMismatch:
            return "read_trace: byte-order marker mismatch";
        case TraceHeaderStatus::kCrcMismatch:
            return "read_trace: header CRC mismatch";
        case TraceHeaderStatus::kImplausible:
            return "read_trace: implausible header dimensions";
    }
    return "read_trace: header accepted";
}

/// Counts and logs a header CRC failure, the same for every reader.
void note_header_crc_failure(bool strict) {
    WIMI_OBS_COUNT("trace.crc_failures", 1);
    WIMI_OBS_LOG_WARN("csi.trace", "header CRC mismatch",
                      obs::kv("policy_strict", strict));
}

/// Counts and logs one damaged frame record, the same for every reader.
void note_damaged_frame(FrameRecordStatus status, std::uint64_t index) {
    if (status == FrameRecordStatus::kCrcMismatch) {
        WIMI_OBS_COUNT("trace.crc_failures", 1);
        WIMI_OBS_LOG_DEBUG("csi.trace", "frame CRC mismatch",
                           obs::kv("frame", index));
    } else {
        WIMI_OBS_LOG_DEBUG("csi.trace", "non-finite CSI frame",
                           obs::kv("frame", index));
    }
    WIMI_OBS_COUNT("trace.frames_skipped", 1);
}

/// The strict readers' message for a damaged frame record.
std::string frame_error(FrameRecordStatus status, std::uint64_t index) {
    return (status == FrameRecordStatus::kCrcMismatch
                ? "read_trace: frame CRC mismatch (frame "
                : "read_trace: non-finite CSI values (frame ") +
           std::to_string(index) + ")";
}

/// Writes `header` into the first trace_header_bytes(header.version)
/// bytes of `out`; v2 adds the byte-order marker and the header CRC.
void encode_trace_header(const TraceHeader& header,
                         std::span<std::uint8_t> out) {
    ensure(out.size() >= trace_header_bytes(header.version),
           "encode_trace_header: buffer shorter than the header");
    std::uint8_t* p = out.data();
    store_u32_le(p, kMagic);
    store_u32_le(p + 4, header.version);
    p += kPrefixBytes;
    if (header.version == kTraceVersion2) {
        store_u32_le(p, kByteOrderMarker);
        p += 4;
    }
    store_u32_le(p, header.antenna_count);
    store_u32_le(p + 4, header.subcarrier_count);
    store_u64_le(p + 8, header.frame_count);
    if (header.version == kTraceVersion2) {
        store_u32_le(p + 16, crc32(out.data(), kHeaderBytesV2 - 4));
    }
}

/// Writes `frame` as one record into `out`, which must be exactly
/// trace_record_bytes(version, <frame geometry>) long; v2 appends the CRC
/// over the payload. The caller checks that the frame is finite.
void encode_frame_record(const CsiFrame& frame, std::uint32_t version,
                         std::span<std::uint8_t> out) {
    const std::size_t payload = 16 + 16 * frame.raw().size();
    ensure(out.size() == trace_record_bytes(version, frame.antenna_count(),
                                            frame.subcarrier_count()),
           "encode_frame_record: buffer does not fit the frame geometry");
    std::uint8_t* p = out.data();
    store_f64_le(p, frame.timestamp_s);
    store_f64_le(p + 8, frame.rssi_dbm);
    p += 16;
    for (const Complex& h : frame.raw()) {
        store_f64_le(p, h.real());
        store_f64_le(p + 8, h.imag());
        p += 16;
    }
    if (version == kTraceVersion2) {
        store_u32_le(p, crc32(out.data(), payload));
    }
}

/// write_trace's checks, run before any byte is produced; returns the
/// header that describes `series`.
TraceHeader writable_header(const CsiSeries& series, std::uint32_t version) {
    ensure(version == kTraceVersion1 || version == kTraceVersion2,
           "write_trace: unsupported version");
    series.validate();
    for (std::size_t i = 0; i < series.frames.size(); ++i) {
        ensure(series.frames[i].is_finite(),
               "write_trace: non-finite CSI values in frame " +
                   std::to_string(i));
    }
    return {.version = version,
            .antenna_count = static_cast<std::uint32_t>(series.antenna_count()),
            .subcarrier_count =
                static_cast<std::uint32_t>(series.subcarrier_count()),
            .frame_count = static_cast<std::uint64_t>(series.packet_count())};
}

}  // namespace

// --- byte codec ---------------------------------------------------------

std::size_t trace_bytes(const CsiSeries& series, std::uint32_t version) {
    return trace_header_bytes(version) +
           series.packet_count() *
               trace_record_bytes(version, series.antenna_count(),
                                  series.subcarrier_count());
}

TraceHeaderStatus decode_trace_header(std::span<const std::uint8_t> bytes,
                                      TraceHeader& header) {
    const std::uint8_t* p = bytes.data();
    if (bytes.size() < kPrefixBytes || load_u32_le(p) != kMagic) {
        return TraceHeaderStatus::kBadMagic;
    }
    header.version = load_u32_le(p + 4);
    if (header.version != kTraceVersion1 &&
        header.version != kTraceVersion2) {
        return TraceHeaderStatus::kBadVersion;
    }
    if (bytes.size() < trace_header_bytes(header.version)) {
        return TraceHeaderStatus::kTruncated;
    }
    const std::uint8_t* fields = p + kPrefixBytes;
    if (header.version == kTraceVersion2) {
        if (load_u32_le(fields) != kByteOrderMarker) {
            return TraceHeaderStatus::kByteOrderMismatch;
        }
        if (load_u32_le(p + kHeaderBytesV2 - 4) !=
            crc32(p, kHeaderBytesV2 - 4)) {
            return TraceHeaderStatus::kCrcMismatch;
        }
        fields += 4;
    }
    const std::uint32_t n_ant = load_u32_le(fields);
    const std::uint32_t n_sc = load_u32_le(fields + 4);
    const std::uint64_t n_frames = load_u64_le(fields + 8);
    const bool plausible =
        ((n_ant >= 1 && n_sc >= 1) || n_frames == 0) &&
        n_ant <= kMaxDimension && n_sc <= kMaxDimension &&
        n_frames <= kMaxFrames;
    if (!plausible) {
        return TraceHeaderStatus::kImplausible;
    }
    header.antenna_count = n_ant;
    header.subcarrier_count = n_sc;
    header.frame_count = n_frames;
    return TraceHeaderStatus::kOk;
}

FrameRecordStatus decode_frame_record(std::span<const std::uint8_t> record,
                                      std::uint32_t version,
                                      CsiFrame& frame) {
    const std::size_t payload = 16 + 16 * frame.raw().size();
    ensure(record.size() == trace_record_bytes(version, frame.antenna_count(),
                                               frame.subcarrier_count()),
           "decode_frame_record: record does not fit the frame geometry");
    const std::uint8_t* p = record.data();
    if (version == kTraceVersion2 &&
        load_u32_le(p + payload) != crc32(p, payload)) {
        return FrameRecordStatus::kCrcMismatch;
    }
    frame.timestamp_s = load_f64_le(p);
    frame.rssi_dbm = load_f64_le(p + 8);
    p += 16;
    for (Complex& h : frame.raw()) {
        h = Complex(load_f64_le(p), load_f64_le(p + 8));
        p += 16;
    }
    // A v1 bit flip or a writer that serialized garbage: reject it here
    // instead of feeding NaN into the pipeline.
    return frame.is_finite() ? FrameRecordStatus::kOk
                             : FrameRecordStatus::kNonFinite;
}

void encode_trace(const CsiSeries& series, std::span<std::uint8_t> out,
                  std::uint32_t version) {
    const TraceHeader header = writable_header(series, version);
    ensure(out.size() == trace_bytes(series, version),
           "encode_trace: buffer size does not match the series");
    encode_trace_header(header, out);
    const std::size_t record = trace_record_bytes(
        version, series.antenna_count(), series.subcarrier_count());
    std::size_t at = trace_header_bytes(version);
    for (const CsiFrame& frame : series.frames) {
        encode_frame_record(frame, version, out.subspan(at, record));
        at += record;
    }
}

CsiSeries decode_trace(std::span<const std::uint8_t> bytes) {
    TraceHeader header;
    const TraceHeaderStatus status = decode_trace_header(bytes, header);
    if (status != TraceHeaderStatus::kOk) {
        if (status == TraceHeaderStatus::kCrcMismatch) {
            note_header_crc_failure(/*strict=*/true);
        }
        fail(header_error(status, header.version));
    }
    // The header caps keep frame_count * record far inside 64 bits, and
    // the length is settled before a single frame is allocated.
    const std::size_t record = trace_record_bytes(
        header.version, header.antenna_count, header.subcarrier_count);
    const std::uint64_t expected =
        trace_header_bytes(header.version) + header.frame_count * record;
    ensure(bytes.size() >= expected, "read_trace: truncated stream");
    ensure(bytes.size() == expected,
           "read_trace: trailing bytes after the last frame");

    CsiSeries series;
    series.frames.reserve(static_cast<std::size_t>(header.frame_count));
    std::size_t at = trace_header_bytes(header.version);
    for (std::uint64_t i = 0; i < header.frame_count; ++i) {
        CsiFrame frame(header.antenna_count, header.subcarrier_count);
        const FrameRecordStatus frame_status = decode_frame_record(
            bytes.subspan(at, record), header.version, frame);
        if (frame_status != FrameRecordStatus::kOk) {
            note_damaged_frame(frame_status, i);
            fail(frame_error(frame_status, i));
        }
        series.frames.push_back(std::move(frame));
        at += record;
    }
    series.validate();
    return series;
}

// --- writer -------------------------------------------------------------

void write_trace(std::ostream& stream, const CsiSeries& series,
                 const TraceWriteOptions& options) {
    // Frame by frame through one record buffer, so writing a long capture
    // never holds a second copy of it.
    const TraceHeader header = writable_header(series, options.version);
    std::array<std::uint8_t, kHeaderBytesV2> header_bytes{};
    encode_trace_header(header, header_bytes);
    stream.write(reinterpret_cast<const char*>(header_bytes.data()),
                 static_cast<std::streamsize>(
                     trace_header_bytes(header.version)));
    std::vector<std::uint8_t> record(trace_record_bytes(
        header.version, header.antenna_count, header.subcarrier_count));
    for (const CsiFrame& frame : series.frames) {
        encode_frame_record(frame, header.version, record);
        stream.write(reinterpret_cast<const char*>(record.data()),
                     static_cast<std::streamsize>(record.size()));
    }
    ensure(static_cast<bool>(stream), "write_trace: stream failure");
}

void write_trace_file(const std::filesystem::path& path,
                      const CsiSeries& series,
                      const TraceWriteOptions& options) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ensure(out.is_open(),
           "write_trace_file: cannot open " + path.string());
    write_trace(out, series, options);
}

// --- streaming writer ---------------------------------------------------

TraceWriter::TraceWriter(const std::filesystem::path& path,
                         std::size_t antenna_count,
                         std::size_t subcarrier_count)
    : antennas_(antenna_count), subcarriers_(subcarrier_count) {
    ensure(antenna_count >= 1 && subcarrier_count >= 1,
           "TraceWriter: dimensions must be >= 1");
    ensure(antenna_count <= kMaxDimension &&
               subcarrier_count <= kMaxDimension,
           "TraceWriter: dimensions exceed the format cap");
    record_.resize(
        trace_record_bytes(kTraceVersion2, antennas_, subcarriers_));
    stream_.open(path, std::ios::binary | std::ios::trunc);
    ensure(stream_.is_open(),
           "TraceWriter: cannot open " + path.string());
    open_ = true;
    stamp_header();
    ensure(static_cast<bool>(stream_), "TraceWriter: header write failed");
}

TraceWriter::~TraceWriter() {
    if (open_) {
        stream_.flush();  // best effort; close() reports failures
    }
}

/// (Re)writes the v2 header in place with the current frame count. The
/// header is fixed-size, so the stamp is a seek + 32-byte write; the
/// write cursor is restored to the end afterwards.
void TraceWriter::stamp_header() {
    std::array<std::uint8_t, kHeaderBytesV2> header{};
    encode_trace_header(
        {.version = kTraceVersion2,
         .antenna_count = static_cast<std::uint32_t>(antennas_),
         .subcarrier_count = static_cast<std::uint32_t>(subcarriers_),
         .frame_count = frames_written_},
        header);
    stream_.seekp(0);
    stream_.write(reinterpret_cast<const char*>(header.data()),
                  static_cast<std::streamsize>(header.size()));
    stream_.seekp(0, std::ios::end);
}

void TraceWriter::append(const CsiFrame& frame) {
    ensure(open_, "TraceWriter::append: writer is closed");
    ensure(frame.antenna_count() == antennas_ &&
               frame.subcarrier_count() == subcarriers_,
           "TraceWriter::append: frame geometry mismatch");
    ensure(frame.is_finite(),
           "TraceWriter::append: non-finite CSI values");
    encode_frame_record(frame, kTraceVersion2, record_);
    stream_.write(reinterpret_cast<const char*>(record_.data()),
                  static_cast<std::streamsize>(record_.size()));
    ++frames_written_;
    stamp_header();
    // Push the completed record to the OS so a tailing reader observes
    // whole frames, not a buffered prefix.
    stream_.flush();
    ensure(static_cast<bool>(stream_),
           "TraceWriter::append: stream failure");
}

void TraceWriter::close() {
    if (!open_) {
        return;
    }
    stream_.flush();
    ensure(static_cast<bool>(stream_), "TraceWriter::close: flush failed");
    stream_.close();
    open_ = false;
}

// --- streaming reader ---------------------------------------------------

TraceReader::TraceReader(std::istream& stream, TraceReadOptions options)
    : stream_(stream), options_(options) {
    read_header();
}

void TraceReader::read_header() {
    const bool strict = options_.policy == ReadPolicy::kStrict;

    // Magic and version first: they say how long the rest of the header
    // is, so the reader never consumes a byte past it.
    std::array<std::uint8_t, kHeaderBytesV2> bytes{};
    stream_.read(reinterpret_cast<char*>(bytes.data()), kPrefixBytes);
    std::size_t got = static_cast<std::size_t>(stream_.gcount());
    TraceHeader header;
    TraceHeaderStatus status = decode_trace_header({bytes.data(), got},
                                                   header);
    if (status == TraceHeaderStatus::kTruncated) {
        stream_.read(reinterpret_cast<char*>(bytes.data() + got),
                     static_cast<std::streamsize>(
                         trace_header_bytes(header.version) - got));
        got += static_cast<std::size_t>(stream_.gcount());
        status = decode_trace_header({bytes.data(), got}, header);
    }
    // Not a WCSI container of any vintage: nothing to salvage, so every
    // policy throws.
    if (status == TraceHeaderStatus::kBadMagic ||
        status == TraceHeaderStatus::kBadVersion) {
        fail(header_error(status, header.version));
    }
    report_.version = header.version;
    if (status != TraceHeaderStatus::kOk) {
        report_.header_ok = false;
        report_.truncated = status == TraceHeaderStatus::kTruncated;
        if (status == TraceHeaderStatus::kCrcMismatch) {
            report_.crc_failures += 1;
            note_header_crc_failure(strict);
        }
        done_ = true;
        ensure(!strict, header_error(status, header.version));
        return;
    }

    report_.antenna_count = header.antenna_count;
    report_.subcarrier_count = header.subcarrier_count;
    report_.frames_declared = header.frame_count;
    buffer_.resize(trace_record_bytes(header.version, header.antenna_count,
                                      header.subcarrier_count));
    if (header.frame_count == 0) {
        done_ = true;
    }
}

/// Pulls one full frame record into buffer_. Returns false (and finishes
/// the read, throwing under strict) when the stream ends first.
bool TraceReader::fill_frame_buffer() {
    stream_.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(buffer_.size()));
    if (stream_.gcount() == static_cast<std::streamsize>(buffer_.size())) {
        return true;
    }
    // Stream ended before the declared frame count: a torn write or
    // truncation. A partial record is a damaged frame; a cut exactly at
    // a record boundary just loses the tail.
    report_.truncated = true;
    if (stream_.gcount() > 0) {
        report_.frames_skipped += 1;
        WIMI_OBS_COUNT("trace.frames_skipped", 1);
    }
    WIMI_OBS_LOG_DEBUG("csi.trace", "stream truncated mid-trace",
                       obs::kv("frames_consumed", frames_consumed_),
                       obs::kv("frames_declared",
                               report_.frames_declared));
    done_ = true;
    ensure(options_.policy != ReadPolicy::kStrict,
           "read_trace: truncated stream");
    return false;
}

std::optional<CsiFrame> TraceReader::next() {
    while (!done_ && frames_consumed_ < report_.frames_declared) {
        if (!fill_frame_buffer()) {
            return std::nullopt;
        }
        const std::uint64_t index = frames_consumed_++;
        CsiFrame frame(report_.antenna_count, report_.subcarrier_count);
        const FrameRecordStatus status =
            decode_frame_record(buffer_, report_.version, frame);
        if (status == FrameRecordStatus::kOk) {
            report_.frames_recovered += 1;
            return frame;
        }
        report_.frames_skipped += 1;
        if (status == FrameRecordStatus::kCrcMismatch) {
            report_.crc_failures += 1;
        } else {
            report_.non_finite_frames += 1;
        }
        note_damaged_frame(status, index);
        ensure(options_.policy != ReadPolicy::kStrict,
               frame_error(status, index));
        if (options_.policy == ReadPolicy::kStopAtCorruption) {
            report_.stopped_at_corruption = true;
            done_ = true;
            return std::nullopt;
        }
        // kSkipCorrupt: keep reading.
    }
    done_ = true;
    return std::nullopt;
}

// --- whole-series convenience wrappers ----------------------------------

CsiSeries read_trace(std::istream& stream,
                     const TraceReadOptions& options,
                     TraceReadReport* report) {
    TraceReader reader(stream, options);
    CsiSeries series;
    if (reader.frames_declared() > 0) {
        series.frames.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(reader.frames_declared(), 65536)));
    }
    while (auto frame = reader.next()) {
        series.frames.push_back(std::move(*frame));
    }
    series.validate();
    const TraceReadReport& result = reader.report();
    if (result.frames_skipped > 0 || result.truncated ||
        !result.header_ok) {
        // One aggregate line per damaged trace; the per-frame detail is
        // at debug level.
        WIMI_OBS_LOG_WARN("csi.trace", "trace read with damage",
                          obs::kv("frames_recovered",
                                  result.frames_recovered),
                          obs::kv("frames_skipped", result.frames_skipped),
                          obs::kv("crc_failures", result.crc_failures),
                          obs::kv("truncated", result.truncated),
                          obs::kv("header_ok", result.header_ok));
    }
    if (report != nullptr) {
        *report = result;
    }
    return series;
}

CsiSeries read_trace_file(const std::filesystem::path& path,
                          const TraceReadOptions& options,
                          TraceReadReport* report) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "read_trace_file: cannot open " + path.string());
    return read_trace(in, options, report);
}

}  // namespace wimi::csi
