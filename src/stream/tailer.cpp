#include "stream/tailer.hpp"

#include <array>
#include <chrono>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::stream {
namespace {

// The tailer addresses records by offset in a file whose tail is still
// being written, so it reads them itself (TraceReader's sequential
// istream ends at EOF, which for a growing file is not the end) and
// decodes them with csi/trace_io's byte codec.
constexpr std::size_t kHeaderBytes =
    csi::trace_header_bytes(csi::kTraceVersion2);

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
    std::array<std::uint8_t, kHeaderBytes> bytes{};
    stream_.read(reinterpret_cast<char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    if (!stream_) {
        stream_.close();
        return false;
    }

    csi::TraceHeader header;
    const bool plausible =
        csi::decode_trace_header(bytes, header) ==
            csi::TraceHeaderStatus::kOk &&
        header.version == csi::kTraceVersion2 && header.antenna_count >= 1 &&
        header.subcarrier_count >= 1;
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

    antennas_ = header.antenna_count;
    subcarriers_ = header.subcarrier_count;
    buffer_.resize(
        csi::trace_record_bytes(csi::kTraceVersion2, antennas_, subcarriers_));
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
    const std::size_t record_bytes = buffer_.size();
    const std::uint64_t complete = (size - kHeaderBytes) / record_bytes;
    if (consumed_ >= complete) {
        return Pull::kNothing;
    }

    stream_.clear();  // a previous poll may have tripped eof
    stream_.seekg(static_cast<std::streamoff>(
        kHeaderBytes + consumed_ * record_bytes));
    stream_.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(record_bytes));
    if (!stream_) {
        return Pull::kNothing;  // raced the filesystem; poll again
    }

    csi::CsiFrame frame(antennas_, subcarriers_);
    if (csi::decode_frame_record(buffer_, csi::kTraceVersion2, frame) ==
        csi::FrameRecordStatus::kOk) {
        ++consumed_;
        WIMI_OBS_COUNT("stream.tail.frames", 1);
        out = std::move(frame);
        return Pull::kFrame;
    }

    // Invalid record (CRC mismatch or non-finite values). If it is the
    // newest one available the writer's flush may still be landing —
    // defer judgment to a later poll.
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
