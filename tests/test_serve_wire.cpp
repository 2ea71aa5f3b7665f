// Tests for the wimi_serve wire protocol (serve/wire).
//
// The framing guarantees the daemon relies on: every encode round-trips
// through decode bit-exactly, and every kind of damage — flipped bits,
// truncation, foreign magic, future versions, lying length fields —
// decodes to a clean wimi::Error instead of garbage or a crash.
#include "serve/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/trace_io.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"

namespace wimi::serve::wire {
namespace {

using Bytes = std::vector<std::uint8_t>;

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/// Every frame of `got` equals `want` bit for bit: geometry, timestamp,
/// RSSI and every cell.
void expect_bit_identical(const csi::CsiSeries& got,
                          const csi::CsiSeries& want) {
    ASSERT_EQ(got.frames.size(), want.frames.size());
    for (std::size_t f = 0; f < want.frames.size(); ++f) {
        const csi::CsiFrame& a = got.frames[f];
        const csi::CsiFrame& b = want.frames[f];
        ASSERT_EQ(a.antenna_count(), b.antenna_count()) << "frame " << f;
        ASSERT_EQ(a.subcarrier_count(), b.subcarrier_count())
            << "frame " << f;
        EXPECT_TRUE(same_bits(a.timestamp_s, b.timestamp_s))
            << "frame " << f;
        EXPECT_TRUE(same_bits(a.rssi_dbm, b.rssi_dbm)) << "frame " << f;
        for (std::size_t i = 0; i < b.raw().size(); ++i) {
            EXPECT_TRUE(same_bits(a.raw()[i].real(), b.raw()[i].real()) &&
                        same_bits(a.raw()[i].imag(), b.raw()[i].imag()))
                << "frame " << f << " cell " << i;
        }
    }
}

/// A 3-antenna x 30-subcarrier capture (the Intel 5300's shape) drawn
/// from `seed`. Only next_u64-derived arithmetic, no libm, so the bytes
/// are the same on every platform.
csi::CsiSeries synthetic_capture(std::uint64_t seed, std::size_t packets) {
    Rng rng(seed);
    csi::CsiSeries series;
    for (std::size_t p = 0; p < packets; ++p) {
        csi::CsiFrame frame(3, 30);
        frame.timestamp_s = 0.01 * static_cast<double>(p);
        frame.rssi_dbm = rng.uniform(-60.0, -30.0);
        for (Complex& h : frame.raw()) {
            h = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

Bytes wcsi_bytes(const csi::CsiSeries& series) {
    std::ostringstream out;
    csi::write_trace(out, series);
    const std::string bytes = std::move(out).str();
    return Bytes(bytes.begin(), bytes.end());
}

std::uint64_t get_u64(const Bytes& bytes, std::size_t offset) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
    }
    return v;
}

void put_u32(Bytes& bytes, std::size_t offset, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

void put_u64(Bytes& bytes, std::size_t offset, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

void append_u64(Bytes& bytes, std::uint64_t v) {
    bytes.resize(bytes.size() + 8);
    put_u64(bytes, bytes.size() - 8, v);
}

/// 64-bit FNV-1a over every byte. The byte pins below use it, not a
/// CRC-32: a CRC over a prefix followed by CRC-sealed records of fixed
/// lengths does not depend on those records' content, so it would not
/// notice a changed field inside them.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x00000100000001b3ull;
    }
    return hash;
}

/// Pins every byte of `bytes` by its size and FNV-1a.
void expect_pinned(std::span<const std::uint8_t> bytes, std::size_t size,
                   std::uint64_t fnv) {
    EXPECT_EQ(bytes.size(), size);
    EXPECT_EQ(fnv1a64(bytes), fnv)
        << std::hex << "0x" << fnv1a64(bytes) << "ull";
}

/// The two WCSI byte regions of a kPredictSeries record whose header
/// (including any v2 trace extension) is `header_bytes` long.
struct SeriesRegions {
    Bytes baseline;
    Bytes target;
};

SeriesRegions split_series_record(const Bytes& record,
                                  std::size_t header_bytes) {
    SeriesRegions regions;
    std::size_t at = header_bytes;
    for (Bytes* region : {&regions.baseline, &regions.target}) {
        const std::uint64_t size = get_u64(record, at);
        at += 8;
        region->assign(record.begin() + static_cast<std::ptrdiff_t>(at),
                       record.begin() +
                           static_cast<std::ptrdiff_t>(at + size));
        at += static_cast<std::size_t>(size);
    }
    EXPECT_EQ(at + kWireTrailerBytes, record.size());
    return regions;
}

/// Builds an untraced kPredictSeries record around two raw WCSI regions
/// with every length field and the record CRC consistent, so whatever is
/// wrong inside a region is left for the inner parser to find.
Bytes series_record(const Bytes& baseline, const Bytes& target) {
    Bytes record = {'W', 'S', 'R', 'Q', 1, 0, 0, 0, 2, 0, 0, 0};
    append_u64(record, 7);  // request id
    append_u64(record, 16 + baseline.size() + target.size());
    for (const Bytes* region : {&baseline, &target}) {
        append_u64(record, region->size());
        record.insert(record.end(), region->begin(), region->end());
    }
    record.resize(record.size() + 4);
    put_u32(record, record.size() - 4,
            crc32(record.data(), record.size() - 4));
    return record;
}

// Inner WCSI v2 layout of the 3x30 captures (see csi/trace_io.hpp).
constexpr std::size_t kWcsiHeader = 32;
constexpr std::size_t kWcsiRecord = 16 + 3 * 30 * 16 + 4;

/// Sets the inner header's frame count and re-stamps its header CRC.
Bytes with_frame_count(Bytes region, std::uint64_t frames) {
    put_u64(region, 20, frames);
    put_u32(region, 28, crc32(region.data(), 28));
    return region;
}

Request features_request() {
    Request request;
    request.type = MessageType::kPredictFeatures;
    request.request_id = 0x0123456789abcdefull;
    request.features = {1.5, -2.25, 0.0, 3.0e-7, 1e12};
    return request;
}

TEST(ServeWire, FeaturesRequestRoundTrips) {
    const Request request = features_request();
    const std::vector<std::uint8_t> record = encode_request(request);
    ASSERT_GE(record.size(), kWireHeaderBytes + kWireTrailerBytes);
    expect_pinned(record, 76u, 0x64d1ebe761ef9e0eull);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kPredictFeatures);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.features, request.features);
}

// A peer that hangs up inside a record gets an error naming the part it
// cut (read over a socketpair whose writer closes mid-record).
TEST(ServeWire, ReadRecordNamesWhereTheConnectionClosed) {
    const std::vector<std::uint8_t> record =
        encode_request(features_request());
    const std::pair<std::size_t, const char*> cuts[] = {
        {kWireHeaderBytes / 2, "wire: connection closed mid-record header"},
        {kWireHeaderBytes + 5, "wire: connection closed mid-record body"},
    };
    for (const auto& [cut, message] : cuts) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        write_record(fds[0], std::span(record).first(cut));
        ::close(fds[0]);
        try {
            read_record(fds[1], "WSRQ");
            ADD_FAILURE() << "read a record cut at byte " << cut;
        } catch (const Error& e) {
            EXPECT_STREQ(e.what(), message);
        }
        ::close(fds[1]);
    }
}

TEST(ServeWire, SeriesRequestRoundTrips) {
    const sim::Scenario scenario{sim::ScenarioConfig{}};
    const sim::MeasurementPair measurement =
        scenario.capture_measurement(rf::Liquid::kMilk, 42);

    Request request;
    request.type = MessageType::kPredictSeries;
    request.request_id = 7;
    request.baseline = measurement.baseline;
    request.target = measurement.target;
    const Request decoded = decode_request(encode_request(request));
    EXPECT_EQ(decoded.type, MessageType::kPredictSeries);
    EXPECT_EQ(decoded.request_id, 7u);
    // The WCSI containers inside the record are lossless.
    expect_bit_identical(decoded.baseline, measurement.baseline);
    expect_bit_identical(decoded.target, measurement.target);
}

TEST(ServeWire, SeriesRequestBytesArePinned) {
    // Two 20-packet 3x30 captures, the paper's operating point, in the
    // untraced (v1) and traced (v2) framing. The CRC-32 of everything
    // before the trailer pins the header and the length fields, but not
    // the WCSI containers: they are CRC-sealed records of fixed length,
    // which leave that CRC the same whatever they hold. The FNV-1a of the
    // whole record pins every byte. (The CRC of a whole record, trailer
    // included, is the constant CRC residue, so it would pin nothing.)
    Request request;
    request.type = MessageType::kPredictSeries;
    request.request_id = 7;
    request.baseline = synthetic_capture(101, 20);
    request.target = synthetic_capture(202, 20);

    const Bytes v1 = encode_request(request);
    EXPECT_EQ(v1.size(), 58512u);
    EXPECT_EQ(crc32(v1.data(), v1.size() - kWireTrailerBytes), 0xB7F33AF0u);
    expect_pinned(v1, 58512u, 0x13db7fff21ceaefeull);
    EXPECT_EQ(v1, series_record(wcsi_bytes(request.baseline),
                                wcsi_bytes(request.target)));

    request.trace_id = 0x0123456789ABCDEFull;
    request.parent_span_id = 0x00FEDCBA98765432ull;
    const Bytes v2 = encode_request(request);
    EXPECT_EQ(v2.size(), 58512u + kWireTraceExtBytes);
    EXPECT_EQ(crc32(v2.data(), v2.size() - kWireTrailerBytes), 0x3FB8A0BFu);
    expect_pinned(v2, 58512u + kWireTraceExtBytes, 0xea9134d1b654cb5full);

    // Each region is byte-equal to write_trace of the same series.
    for (const auto& [record, header] :
         {std::pair{&v1, kWireHeaderBytes},
          std::pair{&v2, kWireHeaderBytes + kWireTraceExtBytes}}) {
        const SeriesRegions regions = split_series_record(*record, header);
        EXPECT_EQ(regions.baseline, wcsi_bytes(request.baseline));
        EXPECT_EQ(regions.target, wcsi_bytes(request.target));
        const Request decoded = decode_request(*record);
        expect_bit_identical(decoded.baseline, request.baseline);
        expect_bit_identical(decoded.target, request.target);
    }
}

TEST(ServeWire, SeriesRegionBytesArePinned) {
    // The WCSI containers a series request carries, pinned on their own
    // in both versions of the format (v1 has no marker and no CRCs).
    const csi::CsiSeries series = synthetic_capture(101, 20);
    expect_pinned(wcsi_bytes(series), 29232u, 0xf53f50386246e78dull);
    std::ostringstream v1;
    csi::write_trace(v1, series, {.version = csi::kTraceVersion1});
    const std::string v1_bytes = std::move(v1).str();
    expect_pinned(Bytes(v1_bytes.begin(), v1_bytes.end()), 29144u,
                  0x3f23c5da4c3c719dull);
}

// --- CRC-valid damage inside a series region ------------------------------
//
// Every record below has a correct outer CRC and consistent outer
// lengths; only the WCSI container inside one region is wrong, so the
// inner parser is the one that must reject it.

/// A 3-frame baseline and target, small enough to sweep every byte.
SeriesRegions small_regions() {
    return {wcsi_bytes(synthetic_capture(11, 3)),
            wcsi_bytes(synthetic_capture(12, 3))};
}

/// Puts `region` in the baseline slot (which = 0) or the target slot and
/// expects a clean wimi::Error from the inner parser of that region, not
/// from the outer framing.
void expect_region_rejected(const SeriesRegions& good, int which,
                            const Bytes& region) {
    const Bytes record = which == 0 ? series_record(region, good.target)
                                    : series_record(good.baseline, region);
    try {
        decode_request(record);
        ADD_FAILURE() << "decoded without an error";
    } catch (const Error& e) {
        const std::string expected =
            which == 0 ? "wire: bad baseline series: "
                       : "wire: bad target series: ";
        EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
    }
}

TEST(ServeWire, SeriesRegionRecordIsWellFormedBeforeDamage) {
    const SeriesRegions good = small_regions();
    const Request decoded =
        decode_request(series_record(good.baseline, good.target));
    expect_bit_identical(decoded.baseline, synthetic_capture(11, 3));
    expect_bit_identical(decoded.target, synthetic_capture(12, 3));
}

TEST(ServeWire, SeriesRegionTruncatedAtEveryByteRejected) {
    const SeriesRegions good = small_regions();
    for (int which = 0; which < 2; ++which) {
        const Bytes& full = which == 0 ? good.baseline : good.target;
        for (std::size_t keep = 0; keep < full.size(); ++keep) {
            SCOPED_TRACE("region " + std::to_string(which) +
                         " keep=" + std::to_string(keep));
            const Bytes cut(full.begin(),
                            full.begin() + static_cast<std::ptrdiff_t>(keep));
            expect_region_rejected(good, which, cut);
        }
    }
}

TEST(ServeWire, SeriesRegionFrameCountMismatchRejected) {
    const SeriesRegions good = small_regions();
    for (int which = 0; which < 2; ++which) {
        const Bytes& full = which == 0 ? good.baseline : good.target;
        for (const std::uint64_t frames :
             {std::uint64_t{2}, std::uint64_t{4}, std::uint64_t{1} << 40}) {
            SCOPED_TRACE("region " + std::to_string(which) +
                         " frames=" + std::to_string(frames));
            expect_region_rejected(good, which,
                                   with_frame_count(full, frames));
        }
    }
}

TEST(ServeWire, SeriesRegionFrameCrcMismatchRejected) {
    const SeriesRegions good = small_regions();
    for (int which = 0; which < 2; ++which) {
        Bytes region = which == 0 ? good.baseline : good.target;
        region[kWcsiHeader + kWcsiRecord + 40] ^= 0x08;  // frame 1 payload
        SCOPED_TRACE("region " + std::to_string(which));
        expect_region_rejected(good, which, region);
    }
}

TEST(ServeWire, SeriesRegionNanUnderValidFrameCrcRejected) {
    const SeriesRegions good = small_regions();
    for (int which = 0; which < 2; ++which) {
        Bytes region = which == 0 ? good.baseline : good.target;
        // Frame 2, first cell's imaginary part; then the frame CRC is
        // re-stamped, so only the finite-values check can catch it.
        const std::size_t frame = kWcsiHeader + 2 * kWcsiRecord;
        put_u64(region, frame + 16 + 8,
                std::bit_cast<std::uint64_t>(
                    std::numeric_limits<double>::quiet_NaN()));
        put_u32(region, frame + kWcsiRecord - 4,
                crc32(region.data() + frame, kWcsiRecord - 4));
        SCOPED_TRACE("region " + std::to_string(which));
        expect_region_rejected(good, which, region);
    }
}

TEST(ServeWire, SeriesRegionJunkAfterContainerRejected) {
    const SeriesRegions good = small_regions();
    Rng rng(5);
    for (int which = 0; which < 2; ++which) {
        Bytes region = which == 0 ? good.baseline : good.target;
        for (int i = 0; i < 1000; ++i) {
            region.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
        SCOPED_TRACE("region " + std::to_string(which));
        expect_region_rejected(good, which, region);
    }
}

TEST(ServeWire, ControlRequestsRoundTrip) {
    Request swap;
    swap.type = MessageType::kSwapModel;
    swap.request_id = 9;
    swap.path = "/models/retrained.wmdl";
    expect_pinned(encode_request(swap), 58u, 0x7a477fb62fb4b007ull);
    const Request swap_decoded = decode_request(encode_request(swap));
    EXPECT_EQ(swap_decoded.type, MessageType::kSwapModel);
    EXPECT_EQ(swap_decoded.path, swap.path);

    for (const MessageType type :
         {MessageType::kPing, MessageType::kShutdown}) {
        Request control;
        control.type = type;
        control.request_id = 11;
        if (type == MessageType::kPing) {
            expect_pinned(encode_request(control), 32u, 0x9d0e6573329282c1ull);
        }
        const Request decoded = decode_request(encode_request(control));
        EXPECT_EQ(decoded.type, type);
        EXPECT_EQ(decoded.request_id, 11u);
    }
}

TEST(ServeWire, OkResponseRoundTrips) {
    Response response;
    response.status = Status::kOk;
    response.request_id = 21;
    response.material_id = 3;
    response.material_name = "Milk";
    response.model_digest = "deadbeef";
    response.queue_us = 12.5;
    response.batch_wall_us = 340.75;
    response.batch_size = 8;
    expect_pinned(encode_response(response), 76u, 0x32b41a1f8aa0d21cull);
    const Response decoded = decode_response(encode_response(response));
    EXPECT_EQ(decoded.status, Status::kOk);
    EXPECT_EQ(decoded.request_id, 21u);
    EXPECT_EQ(decoded.material_id, 3);
    EXPECT_EQ(decoded.material_name, "Milk");
    EXPECT_EQ(decoded.model_digest, "deadbeef");
    EXPECT_EQ(decoded.queue_us, 12.5);
    EXPECT_EQ(decoded.batch_wall_us, 340.75);
    EXPECT_EQ(decoded.batch_size, 8u);
}

TEST(ServeWire, RejectionResponseRoundTrips) {
    for (const Status status :
         {Status::kOverloaded, Status::kBadRequest, Status::kServerError,
          Status::kShuttingDown}) {
        Response response;
        response.status = status;
        response.request_id = 33;
        response.message = "queue full (128 waiting)";
        if (status == Status::kOverloaded) {
            expect_pinned(encode_response(response), 60u,
                          0x57872d87e74ebc4full);
        }
        const Response decoded =
            decode_response(encode_response(response));
        EXPECT_EQ(decoded.status, status);
        EXPECT_EQ(decoded.request_id, 33u);
        EXPECT_EQ(decoded.message, response.message);
        EXPECT_EQ(decoded.material_id, -1);
    }
}

TEST(ServeWire, StatusNamesAreStable) {
    EXPECT_EQ(status_name(Status::kOk), "ok");
    EXPECT_EQ(status_name(Status::kOverloaded), "overloaded");
    EXPECT_EQ(status_name(Status::kBadRequest), "bad_request");
    EXPECT_EQ(status_name(Status::kServerError), "server_error");
    EXPECT_EQ(status_name(Status::kShuttingDown), "shutting_down");
}

TEST(ServeWire, FlippedBitFailsCrc) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    // Flip one bit in the body (past the header, before the CRC).
    record[kWireHeaderBytes + 2] ^= 0x10;
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, CorruptedTrailerFailsCrc) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record.back() ^= 0xff;
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, TruncationRejected) {
    const std::vector<std::uint8_t> record =
        encode_request(features_request());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, kWireHeaderBytes - 1,
          kWireHeaderBytes, record.size() - 1}) {
        const std::vector<std::uint8_t> cut(record.begin(),
                                            record.begin() + keep);
        EXPECT_THROW(decode_request(cut), Error) << "keep=" << keep;
    }
}

TEST(ServeWire, TrailingBytesRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record.push_back(0);
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, ForeignMagicRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record[0] = 'X';
    EXPECT_THROW(decode_request(record), Error);
    // A response record is not a request record.
    const std::vector<std::uint8_t> response =
        encode_response(Response{});
    EXPECT_THROW(decode_request(response), Error);
}

TEST(ServeWire, FutureVersionRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record[4] = 0x7f;  // version LE low byte -> 127
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, LyingBodyLengthRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    // Understate body_bytes (offset 20, LE). The record length no longer
    // matches header + body + CRC.
    record[20] = static_cast<std::uint8_t>(record[20] - 1);
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, LyingFeatureWidthRejectedWithoutAllocating) {
    // A CRC-valid feature request whose width claims 2^32 - 1 doubles
    // behind a 4-byte body. The count is checked against the bytes left
    // before anything is allocated, so the claim cannot reserve 32 GiB.
    Bytes record = {'W', 'S', 'R', 'Q', 1, 0, 0, 0, 1, 0, 0, 0};
    append_u64(record, 5);  // request id
    append_u64(record, 4);  // body_bytes
    record.resize(record.size() + 8);
    put_u32(record, record.size() - 8, 0xFFFFFFFFu);
    put_u32(record, record.size() - 4,
            crc32(record.data(), record.size() - 4));
    try {
        decode_request(record);
        ADD_FAILURE() << "decoded a 4-byte body as 2^32 - 1 features";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), "wire: truncated features");
    }
}

TEST(ServeWire, UnknownTypeWithStaleCrcRejected) {
    Request request;
    request.type = MessageType::kPing;
    std::vector<std::uint8_t> record = encode_request(request);
    // Rewrite type (offset 8, LE) without re-signing: the CRC is stale,
    // so this is damage, not version skew, and must throw.
    record[8] = 0x7e;
    EXPECT_THROW(decode_request(record), Error);
}

// Patches `record[offset] = value` and re-signs the CRC trailer, turning
// damage into an honest (future-protocol) record.
std::vector<std::uint8_t> resign(std::vector<std::uint8_t> record,
                                 std::size_t offset,
                                 std::uint8_t value) {
    record[offset] = value;
    const std::uint32_t crc =
        crc32(record.data(), record.size() - kWireTrailerBytes);
    for (std::size_t i = 0; i < 4; ++i) {
        record[record.size() - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return record;
}

TEST(ServeWire, UnknownTypeWithValidCrcDecodesToKUnknown) {
    Request request;
    request.type = MessageType::kPing;
    request.request_id = 55;
    // An undefined type with an intact CRC is a well-formed record from
    // a newer protocol, not corruption: the decoder hands it back as
    // kUnknown (raw type preserved) so the daemon can answer with an
    // explicit kBadRequest instead of dropping the connection.
    const std::vector<std::uint8_t> record =
        resign(encode_request(request), 8, 0x7e);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kUnknown);
    EXPECT_EQ(decoded.raw_type, 0x7eu);
    EXPECT_EQ(decoded.request_id, 55u);
}

TEST(ServeWire, UntracedRequestStaysVersion1) {
    // The PR 8 byte-compatibility promise: a request carrying no trace
    // context encodes as a v1 record — same version byte, same length —
    // so untraced clients interoperate with old daemons for free.
    const std::vector<std::uint8_t> record =
        encode_request(features_request());
    EXPECT_EQ(record[4], 1u);  // version, LE low byte
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.trace_id, 0u);
    EXPECT_EQ(decoded.parent_span_id, 0u);
}

TEST(ServeWire, TracedRequestRoundTripsAsVersion2) {
    Request request = features_request();
    request.trace_id = 0x000ABCDEF1234567ull;
    request.parent_span_id = 0x00011112222ull;
    const std::vector<std::uint8_t> record = encode_request(request);
    EXPECT_EQ(record[4], 2u);
    expect_pinned(record, 92u, 0x01aed43b66ca1d7dull);
    // v2 is exactly the v1 framing plus the 16-byte trace extension.
    const std::vector<std::uint8_t> v1 =
        encode_request(features_request());
    EXPECT_EQ(record.size(), v1.size() + kWireTraceExtBytes);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kPredictFeatures);
    EXPECT_EQ(decoded.trace_id, request.trace_id);
    EXPECT_EQ(decoded.parent_span_id, request.parent_span_id);
    EXPECT_EQ(decoded.features, request.features);
}

TEST(ServeWire, AdminRequestsRoundTrip) {
    for (const MessageType type :
         {MessageType::kStats, MessageType::kHealth,
          MessageType::kDumpFlight}) {
        Request request;
        request.type = type;
        request.request_id = 77;
        const Request decoded = decode_request(encode_request(request));
        EXPECT_EQ(decoded.type, type);
        EXPECT_EQ(decoded.request_id, 77u);
    }
}

TEST(ServeWire, ResponseTraceAndPayloadRoundTrip) {
    Response response;
    response.status = Status::kOk;
    response.request_id = 91;
    response.model_digest = "feedface";
    response.trace_id = 0x0005556667778ull;
    response.span_id = 0x000999000111ull;
    response.payload = "{\"schema\":\"wimi.stats.v1\",\"uptime_us\":5}";
    const std::vector<std::uint8_t> record = encode_response(response);
    EXPECT_EQ(record[4], 2u);
    expect_pinned(record, 132u, 0xd710f58430f50f2full);
    const Response decoded = decode_response(record);
    EXPECT_EQ(decoded.status, Status::kOk);
    EXPECT_EQ(decoded.trace_id, response.trace_id);
    EXPECT_EQ(decoded.span_id, response.span_id);
    EXPECT_EQ(decoded.payload, response.payload);
    EXPECT_EQ(decoded.model_digest, "feedface");

    // No trace, no payload -> still a v1 record.
    Response plain;
    plain.status = Status::kOk;
    plain.request_id = 92;
    EXPECT_EQ(encode_response(plain)[4], 1u);
}

}  // namespace
}  // namespace wimi::serve::wire
