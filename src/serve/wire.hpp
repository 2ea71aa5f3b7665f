// wimi_serve wire protocol: length-prefixed, versioned, CRC-checked
// request/response records over a stream socket (a Unix-domain socket
// in practice).
//
// The framing follows the WCSI conventions (csi/trace_io.hpp,
// serve/model_io.hpp): every multi-byte field is explicitly
// little-endian, written and read through the codec the three formats
// share (common/bytes.hpp), records carry a magic + version, and a
// CRC-32 (src/common/crc32) over the whole record makes a flipped bit or
// torn write a clean decode error, never a silently wrong prediction.
// One header parser (parse_header) serves read_record, the decoders and
// the daemon's echo of a request id.
//
// Request record ("WSRQ"):
//
//   offset  size  field
//        0     4  magic "WSRQ"
//        4     4  u32 version (1 or 2)
//        8     4  u32 type (MessageType)
//       12     8  u64 request_id (client-chosen, echoed in the response)
//       20     8  u64 body_bytes (N)
//     [v2 only — trace-context extension]
//       28     8  u64 trace_id (caller's ObsContext trace, 0 = none)
//       36     8  u64 span_id  (caller's active span / responder's span)
//     [end v2 extension]
//        H     N  body (H = 28 for v1, 44 for v2; layout depends on type)
//      H+N     4  u32 CRC-32 over bytes [0, H+N)
//
// Response record ("WSRP") has the same shape with `type` replaced by
// `status` (Status). Request bodies:
//
//   kPredictFeatures — u32 width, f64 features[width] (unscaled, in the
//                      model's persisted feature order).
//   kPredictSeries   — u64 baseline_bytes + WCSI v2 container bytes,
//                      u64 target_bytes + WCSI v2 container bytes
//                      (csi/trace_io's byte codec, encoded and parsed in
//                      place, checksummed again inside; each region holds
//                      exactly one container, nothing after it).
//   kSwapModel       — u32 path_bytes + UTF-8 wimi.model.v1 path, read
//                      by the *server* process.
//   kPing, kShutdown — empty body.
//   kStats, kHealth, kDumpFlight — empty body; admin introspection, the
//                      answer arrives in the response `payload`.
//
// Response bodies:
//
//   kOk to a predict  — i32 material_id, u32 name_bytes + UTF-8 name,
//                       u32 digest_bytes + UTF-8 model digest,
//                       f64 queue_us, f64 batch_wall_us, u32 batch_size,
//                       then (v2 only) u32 payload_bytes + payload.
//   kOk to ping/swap  — u32 digest_bytes + digest of the (new) serving
//                       model; remaining predict fields zeroed. Admin
//                       answers (stats/health/dump-flight) ride in the
//                       v2 payload field (JSON or JSONL documents).
//   anything else     — u32 message_bytes + UTF-8 reason. Rejections
//                       are explicit protocol answers, not closed
//                       connections: an overloaded server says so.
//
// Version negotiation is per-record and implicit: encoders emit v1
// whenever the record carries no trace context and no payload, so a
// client that never opens a trace speaks bytes identical to PR 8 and
// old daemons interoperate untouched. v2 only appears when there is
// something to say, and a v2-aware peer accepts both. Any other layout
// change bumps the version again; decoders reject versions, magics,
// body lengths, and checksums they do not like.
//
// A syntactically valid record whose `type` is unrecognized decodes to
// MessageType::kUnknown (raw value preserved in `raw_type`) instead of
// throwing: the CRC proved the stream is still in sync, so
// protocol-version skew stays a per-request error answer, never a
// dropped connection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "csi/frame.hpp"

namespace wimi::serve::wire {

inline constexpr std::uint32_t kWireVersion1 = 1;
/// v2 appends the 16-byte trace-context extension to the header and the
/// payload string to kOk response bodies.
inline constexpr std::uint32_t kWireVersion2 = 2;
/// Highest version the encoders emit (they prefer v1 when a record
/// carries neither trace context nor payload — see above).
inline constexpr std::uint32_t kWireCurrentVersion = kWireVersion2;

/// Fixed prefix of every record before the body: magic + version +
/// type/status + request_id + body_bytes.
inline constexpr std::size_t kWireHeaderBytes = 28;
/// v2 trace-context extension: u64 trace_id + u64 span_id.
inline constexpr std::size_t kWireTraceExtBytes = 16;
/// Trailing CRC-32.
inline constexpr std::size_t kWireTrailerBytes = 4;

/// Upper bound on body_bytes a decoder will accept. A CSI series
/// request carries two full WCSI containers, so the bound is generous;
/// anything larger is a protocol error, not an allocation request.
inline constexpr std::uint64_t kMaxBodyBytes = 256ull * 1024 * 1024;

enum class MessageType : std::uint32_t {
    /// Decoder sentinel for a CRC-valid record with an unrecognized
    /// type (never appears on the wire; wire types start at 1).
    kUnknown = 0,
    kPredictFeatures = 1,
    kPredictSeries = 2,
    kSwapModel = 3,
    kPing = 4,
    kShutdown = 5,
    /// Admin introspection (empty bodies, JSON answers in `payload`).
    kStats = 6,
    kHealth = 7,
    kDumpFlight = 8,
};

enum class Status : std::uint32_t {
    kOk = 0,
    /// Admission control turned the request away (bounded queue full).
    kOverloaded = 1,
    /// The request decoded but is semantically unusable (wrong feature
    /// width, unloadable swap path, unknown type).
    kBadRequest = 2,
    /// The server failed while processing (prediction threw).
    kServerError = 3,
    /// The daemon is draining; no new work is admitted.
    kShuttingDown = 4,
};

/// Human-readable status name ("ok", "overloaded", ...).
std::string_view status_name(Status status) noexcept;

/// One decoded client request. Only the members implied by `type` are
/// meaningful (features for kPredictFeatures, series for
/// kPredictSeries, path for kSwapModel).
struct Request {
    MessageType type = MessageType::kPing;
    std::uint64_t request_id = 0;
    /// Trace context propagated from the caller's ObsContext; 0 means
    /// "no active trace" and keeps the record at wire v1.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
    /// Raw wire value of `type`; only interesting when type == kUnknown.
    std::uint32_t raw_type = 0;
    std::vector<double> features;
    csi::CsiSeries baseline;
    csi::CsiSeries target;
    std::string path;
};

/// One decoded server response.
struct Response {
    Status status = Status::kOk;
    std::uint64_t request_id = 0;
    /// Trace context echoed by the daemon: the request's trace id plus
    /// the daemon-side request span, so a client can stitch the two
    /// processes together without parsing the daemon's trace file.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    /// Predict answers. material_id is -1 for non-predict responses.
    int material_id = -1;
    std::string material_name;
    /// Digest of the model that served this response (predict, ping,
    /// swap). Within one coalesced batch every response carries the
    /// same digest — the hot-swap "no mixed models" guarantee.
    std::string model_digest;
    /// Telemetry echoed to the client: time the request waited in the
    /// admission queue and the wall time + size of the batch that
    /// served it.
    double queue_us = 0.0;
    double batch_wall_us = 0.0;
    std::uint32_t batch_size = 0;
    /// Admin answer document (kStats/kHealth/kDumpFlight); forces v2.
    std::string payload;
    /// Reason text for non-kOk statuses.
    std::string message;
};

/// Serializes a request/response into one self-contained record.
/// Throws wimi::Error on inconsistent input (e.g. a series request
/// whose CsiSeries fails validation, or a kUnknown request).
std::vector<std::uint8_t> encode_request(const Request& request);
std::vector<std::uint8_t> encode_response(const Response& response);

/// Decodes one full record (header + body + CRC). Throws wimi::Error on
/// bad magic, unknown version, length mismatch, CRC failure, or a
/// malformed body. A well-framed request with an unrecognized type
/// yields type == kUnknown instead of throwing.
Request decode_request(std::span<const std::uint8_t> record);
Response decode_response(std::span<const std::uint8_t> record);

/// The fixed fields at the front of every record (offsets 0–27 above).
struct RecordHeader {
    std::uint32_t version = 0;
    std::uint32_t type_or_status = 0;
    std::uint64_t request_id = 0;
    std::uint64_t body_bytes = 0;
};

/// Parses the first kWireHeaderBytes of `record`: checks the magic
/// ("WSRQ" or "WSRP"), the version and the body_bytes cap, and throws
/// wimi::Error otherwise. The one header parser: read_record, the
/// decoders, and a server echoing the request id of a record it could
/// not decode all go through it.
RecordHeader parse_header(std::span<const std::uint8_t> record,
                          const char magic[4]);

/// Blocking record I/O over a connected stream socket. read_record
/// returns nullopt on clean EOF at a record boundary; mid-record EOF, an
/// oversized body_bytes, or a foreign magic throws wimi::Error. Its
/// buffer grows with the bytes received, not with the claimed length.
/// `expected_magic` is "WSRQ" (server side) or "WSRP" (client side).
/// write_record sends without raising SIGPIPE: a peer that has gone is a
/// wimi::Error.
std::optional<std::vector<std::uint8_t>> read_record(
    int socket, const char expected_magic[4]);
void write_record(int socket, std::span<const std::uint8_t> record);

}  // namespace wimi::serve::wire
