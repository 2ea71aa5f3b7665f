#include "serve/wire.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "csi/trace_io.hpp"

namespace wimi::serve::wire {
namespace {

constexpr std::uint32_t fourcc(const char magic[4]) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(magic[0])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(magic[1]))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(magic[2]))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(magic[3]))
            << 24);
}

constexpr char kRequestMagic[4] = {'W', 'S', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'W', 'S', 'R', 'P'};

// --- explicit little-endian field codec ---------------------------------

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFu));
    }
}

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFFu));
    }
}

void put_i32_le(std::vector<std::uint8_t>& out, std::int32_t v) {
    put_u32_le(out, static_cast<std::uint32_t>(v));
}

void put_f64_le(std::vector<std::uint8_t>& out, double v) {
    put_u64_le(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
    ensure(s.size() <= 0xFFFFFFFFu, "wire: string too long");
    put_u32_le(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/// Appends u64 byte count + the WCSI v2 container of `series`, encoded
/// straight into `out` by the csi/trace_io byte codec.
void put_series(std::vector<std::uint8_t>& out,
                const csi::CsiSeries& series) {
    const std::size_t bytes = csi::trace_bytes(series);
    put_u64_le(out, bytes);
    const std::size_t at = out.size();
    out.resize(at + bytes);
    csi::encode_trace(series, std::span(out).subspan(at));
}

/// Bounds-checked reader (same shape as the model_io / trace_io
/// cursors): truncated or lying lengths become clean decode errors.
class Cursor {
public:
    Cursor() : data_(nullptr), size_(0) {}
    Cursor(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}

    bool exhausted() const { return pos_ == size_; }

    std::uint32_t get_u32() {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i) {
            v = (v << 8) | static_cast<std::uint32_t>(
                               data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t get_u64() {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i) {
            v = (v << 8) | static_cast<std::uint64_t>(
                               data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 8;
        return v;
    }

    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }

    double get_f64() { return std::bit_cast<double>(get_u64()); }

    std::string get_string() {
        const std::uint32_t bytes = get_u32();
        need(bytes, "string body");
        std::string s(reinterpret_cast<const char*>(data_ + pos_), bytes);
        pos_ += bytes;
        return s;
    }

    /// u64 length + that many bytes, as a view into the record.
    std::span<const std::uint8_t> get_region() {
        const std::uint64_t bytes = get_u64();
        need(bytes, "byte region");
        const std::span<const std::uint8_t> region(
            data_ + pos_, static_cast<std::size_t>(bytes));
        pos_ += region.size();
        return region;
    }

private:
    void need(std::uint64_t bytes, const char* what) {
        ensure(bytes <= size_ - pos_,
               std::string("wire: record truncated reading ") + what);
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

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
std::vector<std::uint8_t> start_record(const char magic[4],
                                       std::uint32_t version,
                                       std::uint32_t type_or_status,
                                       std::uint64_t request_id,
                                       std::uint64_t trace_id,
                                       std::uint64_t span_id,
                                       std::size_t body_capacity = 0) {
    std::vector<std::uint8_t> record;
    record.reserve(record_header_bytes(version) + body_capacity +
                   kWireTrailerBytes);
    put_u32_le(record, fourcc(magic));
    put_u32_le(record, version);
    put_u32_le(record, type_or_status);
    put_u64_le(record, request_id);
    put_u64_le(record, 0);  // body_bytes, stamped by seal_record
    if (version >= kWireVersion2) {
        put_u64_le(record, trace_id);
        put_u64_le(record, span_id);
    }
    return record;
}

/// Stamps body_bytes and appends the CRC over everything before the
/// trailer.
std::vector<std::uint8_t> seal_record(std::vector<std::uint8_t> record,
                                      std::uint32_t version) {
    const std::uint64_t body = record.size() - record_header_bytes(version);
    for (std::size_t i = 0; i < 8; ++i) {
        record[kBodyBytesOffset + i] =
            static_cast<std::uint8_t>((body >> (8 * i)) & 0xFFu);
    }
    put_u32_le(record, crc32(record.data(), record.size()));
    return record;
}

/// Parsed framing of one record: validated prefix fields plus the body
/// cursor. trace_id/span_id are zero for v1 records.
struct OpenedRecord {
    std::uint32_t version = 0;
    std::uint32_t type_or_status = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    Cursor body;
};

/// Validates framing (magic, version, lengths, CRC) and splits the
/// record into its fields.
OpenedRecord open_record(std::span<const std::uint8_t> record,
                         const char magic[4]) {
    ensure(record.size() >= kWireHeaderBytes + kWireTrailerBytes,
           "wire: record shorter than header + CRC");
    OpenedRecord opened;
    Cursor header(record.data(), record.size());
    ensure(header.get_u32() == fourcc(magic), "wire: bad record magic");
    opened.version = header.get_u32();
    ensure(opened.version == kWireVersion1 ||
               opened.version == kWireVersion2,
           "wire: unknown protocol version");
    opened.type_or_status = header.get_u32();
    opened.request_id = header.get_u64();
    const std::uint64_t body_bytes = header.get_u64();
    ensure(body_bytes <= kMaxBodyBytes, "wire: body length over limit");
    const std::size_t body_offset = record_header_bytes(opened.version);
    ensure(record.size() == body_offset + body_bytes + kWireTrailerBytes,
           "wire: record length does not match body length");
    if (opened.version == kWireVersion2) {
        opened.trace_id = header.get_u64();
        opened.span_id = header.get_u64();
    }
    const std::size_t crc_offset = record.size() - kWireTrailerBytes;
    Cursor trailer(record.data() + crc_offset, kWireTrailerBytes);
    ensure(trailer.get_u32() == crc32(record.data(), crc_offset),
           "wire: record CRC mismatch");
    opened.body = Cursor(record.data() + body_offset,
                         static_cast<std::size_t>(body_bytes));
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
    std::vector<std::uint8_t> record = start_record(
        kRequestMagic, version, static_cast<std::uint32_t>(request.type),
        request.request_id, request.trace_id, request.parent_span_id,
        series ? 16 + csi::trace_bytes(request.baseline) +
                     csi::trace_bytes(request.target)
               : 0);
    switch (request.type) {
        case MessageType::kPredictFeatures: {
            ensure(request.features.size() <= 0xFFFFFFFFu,
                   "wire: feature vector too wide");
            put_u32_le(record,
                       static_cast<std::uint32_t>(request.features.size()));
            for (const double v : request.features) {
                put_f64_le(record, v);
            }
            break;
        }
        case MessageType::kPredictSeries: {
            put_series(record, request.baseline);
            put_series(record, request.target);
            break;
        }
        case MessageType::kSwapModel: {
            put_string(record, request.path);
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
    std::vector<std::uint8_t> record = start_record(
        kResponseMagic, version, static_cast<std::uint32_t>(response.status),
        response.request_id, response.trace_id, response.span_id);
    if (response.status == Status::kOk) {
        put_i32_le(record, response.material_id);
        put_string(record, response.material_name);
        put_string(record, response.model_digest);
        put_f64_le(record, response.queue_us);
        put_f64_le(record, response.batch_wall_us);
        put_u32_le(record, response.batch_size);
        if (version >= kWireVersion2) {
            put_string(record, response.payload);
        }
    } else {
        put_string(record, response.message);
    }
    return seal_record(std::move(record), version);
}

Request decode_request(std::span<const std::uint8_t> record) {
    OpenedRecord opened = open_record(record, kRequestMagic);
    Request request;
    request.request_id = opened.request_id;
    request.trace_id = opened.trace_id;
    request.parent_span_id = opened.span_id;
    request.raw_type = opened.type_or_status;
    Cursor& body = opened.body;
    switch (opened.type_or_status) {
        case static_cast<std::uint32_t>(MessageType::kPredictFeatures): {
            request.type = MessageType::kPredictFeatures;
            const std::uint32_t width = body.get_u32();
            request.features.reserve(width);
            for (std::uint32_t i = 0; i < width; ++i) {
                request.features.push_back(body.get_f64());
            }
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kPredictSeries): {
            request.type = MessageType::kPredictSeries;
            request.baseline = parse_series(body.get_region(), "baseline");
            request.target = parse_series(body.get_region(), "target");
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kSwapModel): {
            request.type = MessageType::kSwapModel;
            request.path = body.get_string();
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
    ensure(opened.type_or_status <=
               static_cast<std::uint32_t>(Status::kShuttingDown),
           "wire: unknown response status");
    Response response;
    response.request_id = opened.request_id;
    response.trace_id = opened.trace_id;
    response.span_id = opened.span_id;
    response.status = static_cast<Status>(opened.type_or_status);
    Cursor& body = opened.body;
    if (response.status == Status::kOk) {
        response.material_id = body.get_i32();
        response.material_name = body.get_string();
        response.model_digest = body.get_string();
        response.queue_us = body.get_f64();
        response.batch_wall_us = body.get_f64();
        response.batch_size = body.get_u32();
        if (opened.version >= kWireVersion2) {
            response.payload = body.get_string();
        }
    } else {
        response.message = body.get_string();
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

    Cursor header(record.data(), kWireHeaderBytes);
    ensure(header.get_u32() == fourcc(expected_magic),
           "wire: bad record magic");
    const std::uint32_t version = header.get_u32();
    ensure(version == kWireVersion1 || version == kWireVersion2,
           "wire: unknown protocol version");
    header.get_u32();  // type / status: validated by the decoder
    header.get_u64();  // request id
    const std::uint64_t body_bytes = header.get_u64();
    ensure(body_bytes <= kMaxBodyBytes, "wire: body length over limit");

    const std::size_t ext =
        version == kWireVersion2 ? kWireTraceExtBytes : 0;
    record.resize(kWireHeaderBytes + ext +
                  static_cast<std::size_t>(body_bytes) + kWireTrailerBytes);
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
