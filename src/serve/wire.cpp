#include "serve/wire.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "csi/trace_io.hpp"

namespace wimi::serve::wire {
namespace {

constexpr char kRequestMagic[4] = {'W', 'S', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'W', 'S', 'R', 'P'};

void write_string(ByteWriter& out, std::string_view s) {
    ensure(s.size() <= 0xFFFFFFFFu, "wire: string too long");
    out.u32(static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

std::string read_string(ByteReader& in) {
    return in.string(in.u32(), "string body");
}

/// Appends u64 byte count + the WCSI v2 container of `series`, encoded
/// straight into `out` by the csi/trace_io byte codec.
void write_series(ByteWriter& out, const csi::CsiSeries& series) {
    const std::size_t bytes = csi::trace_bytes(series);
    out.u64(bytes);
    csi::encode_trace(series, out.grow(bytes));
}

/// Records with trace context or a payload need the v2 layout; plain
/// records stay at v1 so pre-v2 peers keep decoding them.
std::uint32_t pick_version(std::uint64_t trace_id, std::uint64_t span_id,
                           bool has_payload) {
    return (trace_id != 0 || span_id != 0 || has_payload) ? kWireVersion2
                                                          : kWireVersion1;
}

std::size_t record_header_bytes(std::uint32_t version) {
    return kWireHeaderBytes +
           (version >= kWireVersion2 ? kWireTraceExtBytes : 0);
}

/// Offset of the u64 body_bytes field in the header.
constexpr std::size_t kBodyBytesOffset = 20;

/// Starts one record: header (+ v2 trace extension) with body_bytes left
/// zero. The caller appends the body straight after it and seal_record
/// finishes the record, so no body is ever copied.
ByteWriter start_record(const char magic[4], std::uint32_t version,
                        std::uint32_t type_or_status,
                        std::uint64_t request_id, std::uint64_t trace_id,
                        std::uint64_t span_id,
                        std::size_t body_capacity = 0) {
    ByteWriter record(record_header_bytes(version) + body_capacity +
                      kWireTrailerBytes);
    record.u32(fourcc(magic));
    record.u32(version);
    record.u32(type_or_status);
    record.u64(request_id);
    record.u64(0);  // body_bytes, stamped by seal_record
    if (version >= kWireVersion2) {
        record.u64(trace_id);
        record.u64(span_id);
    }
    return record;
}

/// Stamps body_bytes and appends the CRC over everything before the
/// trailer.
std::vector<std::uint8_t> seal_record(ByteWriter record,
                                      std::uint32_t version) {
    record.patch_u64(kBodyBytesOffset,
                     record.size() - record_header_bytes(version));
    record.seal();
    return std::move(record).take();
}

/// Parsed framing of one record: the header, the v2 trace context (zero
/// for v1 records) and a reader over the body.
struct OpenedRecord {
    RecordHeader header;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    ByteReader body;
};

/// Validates framing (magic, version, lengths, CRC) and splits the
/// record into its fields.
OpenedRecord open_record(std::span<const std::uint8_t> record,
                         const char magic[4]) {
    ensure(record.size() >= kWireHeaderBytes + kWireTrailerBytes,
           "wire: record shorter than header + CRC");
    const RecordHeader header = parse_header(record, magic);
    const std::size_t body_offset = record_header_bytes(header.version);
    ensure(record.size() ==
               body_offset + header.body_bytes + kWireTrailerBytes,
           "wire: record length does not match body length");
    const std::size_t crc_offset = record.size() - kWireTrailerBytes;
    ensure(load_u32_le(record.data() + crc_offset) ==
               crc32(record.data(), crc_offset),
           "wire: record CRC mismatch");
    OpenedRecord opened{
        header, 0, 0,
        ByteReader(record.subspan(body_offset,
                                  static_cast<std::size_t>(header.body_bytes)),
                   "wire")};
    if (header.version == kWireVersion2) {
        opened.trace_id = load_u64_le(record.data() + kWireHeaderBytes);
        opened.span_id = load_u64_le(record.data() + kWireHeaderBytes + 8);
    }
    return opened;
}

/// Parses one WCSI region in place (strict: any damage, a frame count
/// that disagrees with the region length, or trailing bytes throw).
csi::CsiSeries parse_series(std::span<const std::uint8_t> region,
                            const char* which) {
    try {
        return csi::decode_trace(region);
    } catch (const Error& e) {
        throw Error(std::string("wire: bad ") + which +
                    " series: " + e.what());
    }
}

void read_exact(int fd, std::uint8_t* data, std::size_t size,
                const char* what) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: read failed (") +
                        std::strerror(errno) + ") in " + what);
        }
        if (n == 0) {
            fail(std::string("wire: connection closed mid-") + what);
        }
        done += static_cast<std::size_t>(n);
    }
}

}  // namespace

RecordHeader parse_header(std::span<const std::uint8_t> record,
                          const char magic[4]) {
    ByteReader in(record, "wire");
    ensure(in.u32() == fourcc(magic), "wire: bad record magic");
    RecordHeader header;
    header.version = in.u32();
    ensure(header.version == kWireVersion1 || header.version == kWireVersion2,
           "wire: unknown protocol version");
    header.type_or_status = in.u32();
    header.request_id = in.u64();
    header.body_bytes = in.u64();
    ensure(header.body_bytes <= kMaxBodyBytes, "wire: body length over limit");
    return header;
}

std::string_view status_name(Status status) noexcept {
    switch (status) {
        case Status::kOk:
            return "ok";
        case Status::kOverloaded:
            return "overloaded";
        case Status::kBadRequest:
            return "bad_request";
        case Status::kServerError:
            return "server_error";
        case Status::kShuttingDown:
            return "shutting_down";
    }
    return "unknown";
}

std::vector<std::uint8_t> encode_request(const Request& request) {
    const std::uint32_t version = pick_version(
        request.trace_id, request.parent_span_id, /*has_payload=*/false);
    const bool series = request.type == MessageType::kPredictSeries;
    ByteWriter record = start_record(
        kRequestMagic, version, static_cast<std::uint32_t>(request.type),
        request.request_id, request.trace_id, request.parent_span_id,
        series ? 16 + csi::trace_bytes(request.baseline) +
                     csi::trace_bytes(request.target)
               : 0);
    switch (request.type) {
        case MessageType::kPredictFeatures: {
            ensure(request.features.size() <= 0xFFFFFFFFu,
                   "wire: feature vector too wide");
            record.u32(static_cast<std::uint32_t>(request.features.size()));
            for (const double v : request.features) {
                record.f64(v);
            }
            break;
        }
        case MessageType::kPredictSeries: {
            write_series(record, request.baseline);
            write_series(record, request.target);
            break;
        }
        case MessageType::kSwapModel: {
            write_string(record, request.path);
            break;
        }
        case MessageType::kPing:
        case MessageType::kShutdown:
        case MessageType::kStats:
        case MessageType::kHealth:
        case MessageType::kDumpFlight:
            break;
        default:
            fail("wire: unknown request type");
    }
    return seal_record(std::move(record), version);
}

std::vector<std::uint8_t> encode_response(const Response& response) {
    const std::uint32_t version = pick_version(
        response.trace_id, response.span_id, !response.payload.empty());
    ByteWriter record = start_record(
        kResponseMagic, version, static_cast<std::uint32_t>(response.status),
        response.request_id, response.trace_id, response.span_id);
    if (response.status == Status::kOk) {
        record.i32(response.material_id);
        write_string(record, response.material_name);
        write_string(record, response.model_digest);
        record.f64(response.queue_us);
        record.f64(response.batch_wall_us);
        record.u32(response.batch_size);
        if (version >= kWireVersion2) {
            write_string(record, response.payload);
        }
    } else {
        write_string(record, response.message);
    }
    return seal_record(std::move(record), version);
}

Request decode_request(std::span<const std::uint8_t> record) {
    OpenedRecord opened = open_record(record, kRequestMagic);
    Request request;
    request.request_id = opened.header.request_id;
    request.trace_id = opened.trace_id;
    request.parent_span_id = opened.span_id;
    request.raw_type = opened.header.type_or_status;
    ByteReader& body = opened.body;
    switch (opened.header.type_or_status) {
        case static_cast<std::uint32_t>(MessageType::kPredictFeatures): {
            request.type = MessageType::kPredictFeatures;
            request.features = body.f64s(body.u32(), "features");
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kPredictSeries): {
            request.type = MessageType::kPredictSeries;
            request.baseline = parse_series(
                body.bytes(body.u64(), "baseline region"), "baseline");
            request.target = parse_series(
                body.bytes(body.u64(), "target region"), "target");
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kSwapModel): {
            request.type = MessageType::kSwapModel;
            request.path = read_string(body);
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kPing):
            request.type = MessageType::kPing;
            break;
        case static_cast<std::uint32_t>(MessageType::kShutdown):
            request.type = MessageType::kShutdown;
            break;
        case static_cast<std::uint32_t>(MessageType::kStats):
            request.type = MessageType::kStats;
            break;
        case static_cast<std::uint32_t>(MessageType::kHealth):
            request.type = MessageType::kHealth;
            break;
        case static_cast<std::uint32_t>(MessageType::kDumpFlight):
            request.type = MessageType::kDumpFlight;
            break;
        default:
            // CRC-valid framing with a type from the future: surface it
            // as kUnknown (body skipped) so the server can answer with
            // an explicit error instead of dropping the connection.
            request.type = MessageType::kUnknown;
            return request;
    }
    ensure(body.exhausted(), "wire: trailing bytes after request body");
    return request;
}

Response decode_response(std::span<const std::uint8_t> record) {
    OpenedRecord opened = open_record(record, kResponseMagic);
    ensure(opened.header.type_or_status <=
               static_cast<std::uint32_t>(Status::kShuttingDown),
           "wire: unknown response status");
    Response response;
    response.request_id = opened.header.request_id;
    response.trace_id = opened.trace_id;
    response.span_id = opened.span_id;
    response.status = static_cast<Status>(opened.header.type_or_status);
    ByteReader& body = opened.body;
    if (response.status == Status::kOk) {
        response.material_id = body.i32();
        response.material_name = read_string(body);
        response.model_digest = read_string(body);
        response.queue_us = body.f64();
        response.batch_wall_us = body.f64();
        response.batch_size = body.u32();
        if (opened.header.version >= kWireVersion2) {
            response.payload = read_string(body);
        }
    } else {
        response.message = read_string(body);
    }
    ensure(body.exhausted(), "wire: trailing bytes after response body");
    return response;
}

std::optional<std::vector<std::uint8_t>> read_record(
    int fd, const char expected_magic[4]) {
    std::vector<std::uint8_t> record(kWireHeaderBytes);
    // Peek at the first byte separately so EOF *between* records is a
    // clean nullopt while EOF inside one is an error.
    std::size_t first = 0;
    while (true) {
        const ssize_t n = ::read(fd, record.data(), 1);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: read failed (") +
                        std::strerror(errno) + ")");
        }
        if (n == 0) {
            return std::nullopt;
        }
        first = 1;
        break;
    }
    read_exact(fd, record.data() + first, kWireHeaderBytes - first,
               "record header");

    const RecordHeader header = parse_header(record, expected_magic);
    record.resize(record_header_bytes(header.version) +
                  static_cast<std::size_t>(header.body_bytes) +
                  kWireTrailerBytes);
    read_exact(fd, record.data() + kWireHeaderBytes,
               record.size() - kWireHeaderBytes, "record body");
    return record;
}

void write_record(int fd, std::span<const std::uint8_t> record) {
    std::size_t done = 0;
    while (done < record.size()) {
        const ssize_t n =
            ::write(fd, record.data() + done, record.size() - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: write failed (") +
                        std::strerror(errno) + ")");
        }
        done += static_cast<std::size_t>(n);
    }
}

}  // namespace wimi::serve::wire
