#include "stream/tailer.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::stream {
namespace {

// WCSI v2 on-disk layout (mirrors src/csi/trace_io.cpp). The tailer
// decodes records itself because it must address them by offset in a
// file whose tail is still being written — TraceReader's sequential
// istream model ends at EOF, which for a growing file is not the end.
constexpr std::size_t kHeaderBytes = 32;
constexpr std::uint32_t kByteOrderMarker = 0x01020304u;
constexpr std::uint32_t kMaxDimension = 65535;

std::uint32_t get_u32_le(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64_le(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | static_cast<std::uint64_t>(p[i]);
    }
    return v;
}

double get_f64_le(const unsigned char* p) {
    return std::bit_cast<double>(get_u64_le(p));
}

}  // namespace

TraceTailer::TraceTailer(std::filesystem::path path, TailerConfig config)
    : path_(std::move(path)), config_(config) {}

bool TraceTailer::try_read_header() {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (ec || size < kHeaderBytes) {
        return false;  // not created / header not landed yet
    }
    stream_.open(path_, std::ios::binary);
    if (!stream_.is_open()) {
        return false;
    }
    unsigned char header[kHeaderBytes];
    stream_.read(reinterpret_cast<char*>(header), kHeaderBytes);
    if (!stream_) {
        stream_.close();
        return false;
    }

    const bool valid =
        std::memcmp(header, "WCSI", 4) == 0 &&
        get_u32_le(header + 4) == csi::kTraceVersion2 &&
        get_u32_le(header + 8) == kByteOrderMarker &&
        get_u32_le(header + 28) == crc32(header, kHeaderBytes - 4);
    const std::uint32_t antennas = get_u32_le(header + 12);
    const std::uint32_t subcarriers = get_u32_le(header + 16);
    const bool plausible = valid && antennas >= 1 && subcarriers >= 1 &&
                           antennas <= kMaxDimension &&
                           subcarriers <= kMaxDimension;
    if (!plausible) {
        stream_.close();
        if (config_.policy == csi::ReadPolicy::kStrict) {
            ensure(false, "TraceTailer: " + path_.string() +
                              " is not a valid WCSI v2 trace");
        }
        WIMI_OBS_LOG_WARN("stream.tailer", "unusable trace header",
                          ::wimi::obs::kv("path", path_.string()));
        stopped_ = true;
        return false;
    }

    antennas_ = antennas;
    subcarriers_ = subcarriers;
    record_bytes_ = 16 + 16 * antennas_ * subcarriers_ + 4;
    buffer_.resize(record_bytes_);
    header_seen_ = true;
    WIMI_OBS_LOG_DEBUG("stream.tailer", "following trace",
                       ::wimi::obs::kv("path", path_.string()),
                       ::wimi::obs::kv("antennas", antennas_),
                       ::wimi::obs::kv("subcarriers", subcarriers_));
    return true;
}

TraceTailer::Pull TraceTailer::pull_one(csi::CsiFrame& out) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (ec || size < kHeaderBytes) {
        return Pull::kNothing;
    }
    const std::uint64_t complete =
        (size - kHeaderBytes) / record_bytes_;
    if (consumed_ >= complete) {
        return Pull::kNothing;
    }

    stream_.clear();  // a previous poll may have tripped eof
    stream_.seekg(static_cast<std::streamoff>(
        kHeaderBytes + consumed_ * record_bytes_));
    stream_.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(record_bytes_));
    if (!stream_) {
        return Pull::kNothing;  // raced the filesystem; poll again
    }

    const std::uint32_t stored = get_u32_le(buffer_.data() + record_bytes_ - 4);
    const bool crc_ok = stored == crc32(buffer_.data(), record_bytes_ - 4);
    csi::CsiFrame frame;
    bool finite_ok = false;
    if (crc_ok) {
        frame = csi::CsiFrame(antennas_, subcarriers_);
        frame.timestamp_s = get_f64_le(buffer_.data());
        frame.rssi_dbm = get_f64_le(buffer_.data() + 8);
        std::span<Complex> cells = frame.raw();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const unsigned char* p = buffer_.data() + 16 + i * 16;
            cells[i] = Complex(get_f64_le(p), get_f64_le(p + 8));
        }
        finite_ok = frame.is_finite();
    }

    if (crc_ok && finite_ok) {
        ++consumed_;
        WIMI_OBS_COUNT("stream.tail.frames", 1);
        out = std::move(frame);
        return Pull::kFrame;
    }

    // Invalid record. If it is the newest one available the writer's
    // flush may still be landing — defer judgment to a later poll.
    if (consumed_ + 1 == complete) {
        return Pull::kTornTail;
    }
    switch (config_.policy) {
        case csi::ReadPolicy::kStrict:
            fail("TraceTailer: corrupt frame record " +
                 std::to_string(consumed_) + " in " + path_.string());
        case csi::ReadPolicy::kSkipCorrupt:
            ++consumed_;
            ++skipped_;
            WIMI_OBS_COUNT("stream.tail.skipped", 1);
            WIMI_OBS_LOG_WARN("stream.tailer", "skipping corrupt record",
                              ::wimi::obs::kv("record", consumed_ - 1));
            return Pull::kNothing;  // caller loops; next pull advances
        case csi::ReadPolicy::kStopAtCorruption:
            stopped_ = true;
            WIMI_OBS_LOG_WARN("stream.tailer", "stopping at corruption",
                              ::wimi::obs::kv("record", consumed_));
            return Pull::kNothing;
    }
    return Pull::kNothing;
}

std::optional<csi::CsiFrame> TraceTailer::next() {
    using Clock = std::chrono::steady_clock;
    const auto idle_budget =
        std::chrono::milliseconds(config_.idle_timeout_ms);
    auto last_progress = Clock::now();

    csi::CsiFrame frame;
    while (!stopped_) {
        if (!header_seen_) {
            if (try_read_header()) {
                last_progress = Clock::now();
            }
        }
        if (header_seen_) {
            const std::uint64_t before = consumed_;
            const Pull pull = pull_one(frame);
            if (pull == Pull::kFrame) {
                return frame;
            }
            if (consumed_ != before) {
                // Skipped a corrupt record: that is progress; retry
                // immediately without burning idle budget.
                last_progress = Clock::now();
                continue;
            }
            if (pull == Pull::kTornTail) {
                // The torn record does not reset the idle clock: if the
                // writer never completes it, the timeout classifies it.
                if (Clock::now() - last_progress >= idle_budget &&
                    config_.policy == csi::ReadPolicy::kStrict) {
                    ensure(false, "TraceTailer: torn final record " +
                                      std::to_string(consumed_) + " in " +
                                      path_.string() + " (writer gone?)");
                }
            }
        }
        if (config_.idle_timeout_ms == 0 ||
            Clock::now() - last_progress >= idle_budget) {
            return std::nullopt;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.poll_interval_ms));
    }
    return std::nullopt;
}

}  // namespace wimi::stream
