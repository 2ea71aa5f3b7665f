// Follow a growing WCSI v2 trace file — `tail -f` for CSI captures.
//
// TraceWriter (src/csi/trace_io) keeps the container valid after every
// append: frame records are fixed-size (the header pins the antenna and
// subcarrier counts) and the header's frame count is re-stamped per
// append. The tailer exploits that: it validates the header once, then
// polls std::filesystem::file_size to learn how many *complete* records
// exist, reads only those, CRC-checks each, and hands frames out one at
// a time. Memory is O(one record) regardless of file size.
//
// Torn tails: the newest record can be size-complete but content-torn
// while the writer's flush is landing. A CRC failure on the final
// available record is therefore retried on later polls instead of being
// classified immediately; it only counts as corruption once bytes
// beyond it exist (the writer moved on) or the idle timeout expires.
//
// Read policies mirror TraceReader:
//   kStrict            confirmed corruption throws wimi::Error
//   kSkipCorrupt       confirmed-corrupt records are skipped and counted
//   kStopAtCorruption  the stream ends cleanly at the first corruption
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "csi/frame.hpp"
#include "csi/trace_io.hpp"

namespace wimi::stream {

struct TailerConfig {
    csi::ReadPolicy policy = csi::ReadPolicy::kStrict;
    std::uint32_t poll_interval_ms = 50;
    /// next() gives up (returns nullopt) after this long with no new
    /// complete record. 0 means a single non-blocking pass per call.
    std::uint32_t idle_timeout_ms = 5000;
};

class TraceTailer {
public:
    /// The file does not need to exist yet; next() waits for it.
    explicit TraceTailer(std::filesystem::path path, TailerConfig config = {});

    /// Pulls the next validated frame, polling for growth up to the idle
    /// timeout. nullopt means: timed out idle, or the stream stopped
    /// (kStopAtCorruption hit, or the header proved invalid under a
    /// non-strict policy).
    std::optional<csi::CsiFrame> next();

    const TailerConfig& config() const { return config_; }
    const std::filesystem::path& path() const { return path_; }

    std::size_t antenna_count() const { return antennas_; }
    std::size_t subcarrier_count() const { return subcarriers_; }

    std::uint64_t frames_skipped() const { return skipped_; }

    /// True once the tailer has permanently stopped (corruption under
    /// kStopAtCorruption, or unusable header under a non-strict policy).
    bool stopped() const { return stopped_; }

private:
    /// Attempts to read + validate the header; true on success. Throws
    /// under kStrict when the header is present but invalid.
    bool try_read_header();

    enum class Pull { kFrame, kTornTail, kNothing };
    /// Tries to pull one complete record; fills `out` on kFrame.
    Pull pull_one(csi::CsiFrame& out);

    std::filesystem::path path_;
    TailerConfig config_;
    std::ifstream stream_;
    bool header_seen_ = false;  ///< the 32-byte header read and validated
    bool stopped_ = false;
    std::size_t antennas_ = 0;
    std::size_t subcarriers_ = 0;
    std::uint64_t consumed_ = 0;  ///< complete records fully processed
    std::uint64_t skipped_ = 0;
    std::vector<std::uint8_t> buffer_;  ///< one frame record, reused
};

}  // namespace wimi::stream
