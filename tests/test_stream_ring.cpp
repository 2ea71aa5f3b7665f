// Property and fault tests for the streaming substrate: FrameRing
// wraparound against a reference deque at every capacity/push-count
// combination, the WindowPlanner schedule against a brute-force
// enumeration at every window/hop combination, and the windowed
// pipeline fed through the trace fault injector under all three
// ReadPolicy modes — a mid-window corrupt frame must shift, truncate,
// or abort the stream exactly as the policy promises, never silently
// skew a window.
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "csi/frame.hpp"
#include "csi/ring.hpp"
#include "csi/trace_io.hpp"
#include "pipeline_test_util.hpp"
#include "stream/pipeline.hpp"
#include "stream/window.hpp"
#include "trace_fault_util.hpp"

namespace wimi {
namespace {

/// A frame whose content encodes its global stream index, so eviction
/// order and window contents are checkable by value.
csi::CsiFrame indexed_frame(std::uint64_t index, std::size_t antennas = 2,
                            std::size_t subcarriers = 3) {
    csi::CsiFrame frame(antennas, subcarriers);
    frame.timestamp_s = static_cast<double>(index);
    frame.rssi_dbm = -40.0 - static_cast<double>(index % 7);
    for (std::size_t a = 0; a < antennas; ++a) {
        for (std::size_t k = 0; k < subcarriers; ++k) {
            frame.at(a, k) = {static_cast<double>(index) + 1.0,
                              static_cast<double>(a * subcarriers + k)};
        }
    }
    return frame;
}

TEST(FrameRing, RejectsZeroCapacity) {
    EXPECT_THROW(csi::FrameRing(0), Error);
}

TEST(FrameRing, MatchesReferenceDequeAtEveryCapacityAndPushCount) {
    for (std::size_t capacity = 1; capacity <= 8; ++capacity) {
        csi::FrameRing ring(capacity);
        std::deque<std::uint64_t> reference;  // global indices held
        for (std::uint64_t pushed = 0; pushed < 21; ++pushed) {
            ring.push(indexed_frame(pushed));
            reference.push_back(pushed);
            if (reference.size() > capacity) {
                reference.pop_front();
            }

            ASSERT_EQ(ring.size(), reference.size())
                << "capacity " << capacity << " push " << pushed;
            EXPECT_EQ(ring.capacity(), capacity);
            EXPECT_EQ(ring.total_pushed(), pushed + 1);
            EXPECT_EQ(ring.evicted(), pushed + 1 - reference.size());
            EXPECT_EQ(ring.full(), reference.size() == capacity);
            EXPECT_FALSE(ring.empty());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(ring.at(i).timestamp_s,
                          static_cast<double>(reference[i]));
                EXPECT_EQ(ring.at(i).at(1, 2).real(),
                          static_cast<double>(reference[i]) + 1.0);
            }
        }
    }
}

TEST(FrameRing, WindowIntoMaterializesNewestFramesOldestFirst) {
    csi::FrameRing ring(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        ring.push(indexed_frame(i));
    }
    // Held frames are globals 6..9.
    csi::CsiSeries out;
    for (std::size_t count = 1; count <= 4; ++count) {
        ring.window_into(count, out);
        ASSERT_EQ(out.frames.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(out.frames[i].timestamp_s,
                      static_cast<double>(10 - count + i));
        }
    }
    EXPECT_THROW(ring.window_into(5, out), Error);
    EXPECT_EQ(ring.window(2).frames.size(), 2u);
}

TEST(FrameRing, WindowIntoReusesTheCallersFrameBuffers) {
    csi::FrameRing ring(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        ring.push(indexed_frame(i));
    }
    csi::CsiSeries out;
    ring.window_into(3, out);
    const Complex* storage = out.frames[0].raw().data();
    ring.push(indexed_frame(5));
    ring.window_into(3, out);
    // Same shape -> the frame payload buffer must be recycled in place.
    EXPECT_EQ(out.frames[0].raw().data(), storage);
    EXPECT_EQ(out.frames[0].timestamp_s, 3.0);
    EXPECT_EQ(out.frames[2].timestamp_s, 5.0);
}

TEST(FrameRing, PinsGeometryOnFirstPush) {
    csi::FrameRing ring(4);
    ring.push(indexed_frame(0, 2, 3));
    EXPECT_EQ(ring.antenna_count(), 2u);
    EXPECT_EQ(ring.subcarrier_count(), 3u);
    EXPECT_THROW(ring.push(indexed_frame(1, 3, 3)), Error);
    EXPECT_THROW(ring.push(indexed_frame(1, 2, 4)), Error);
    EXPECT_THROW(ring.push(csi::CsiFrame()), Error);

    // clear() forgets the frames but not the pin or the counters.
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.total_pushed(), 1u);
    EXPECT_EQ(ring.antenna_count(), 2u);
    EXPECT_THROW(ring.push(indexed_frame(2, 3, 3)), Error);
    ring.push(indexed_frame(2, 2, 3));
    EXPECT_EQ(ring.size(), 1u);
}

TEST(WindowPlanner, RejectsInvalidGeometry) {
    EXPECT_THROW(stream::WindowPlanner(0, 0), Error);
    EXPECT_THROW(stream::WindowPlanner(4, 5), Error);
}

TEST(WindowPlanner, ScheduleMatchesBruteForceAtEveryWindowAndHop) {
    constexpr std::uint64_t kArrivals = 25;
    for (std::size_t window = 1; window <= 6; ++window) {
        for (std::size_t hop = 0; hop <= window; ++hop) {
            stream::WindowPlanner planner(window, hop);
            std::vector<stream::WindowPlan> emitted;
            for (std::uint64_t n = 1; n <= kArrivals; ++n) {
                if (std::optional<stream::WindowPlan> plan =
                        planner.on_frame()) {
                    // A window is due at this exact arrival: it covers
                    // the newest `window` frames.
                    EXPECT_EQ(plan->first_frame, n - window);
                    EXPECT_EQ(plan->frame_count, window);
                    EXPECT_EQ(plan->window_index, emitted.size());
                    emitted.push_back(*plan);
                }
            }
            // Brute-force expectation: hop 0 fires exactly once the
            // moment `window` frames exist; hop H fires at arrivals
            // window + j*H.
            const std::uint64_t expected =
                hop == 0 ? 1 : (kArrivals - window) / hop + 1;
            EXPECT_EQ(emitted.size(), expected)
                << "window " << window << " hop " << hop;
            EXPECT_EQ(planner.windows_emitted(), expected);
            EXPECT_EQ(planner.frames_seen(), kArrivals);
            for (std::size_t j = 0; j < emitted.size(); ++j) {
                EXPECT_EQ(emitted[j].first_frame, j * hop);
            }

            planner.reset();
            EXPECT_EQ(planner.frames_seen(), 0u);
            EXPECT_EQ(planner.windows_emitted(), 0u);
            for (std::size_t n = 1; n < window; ++n) {
                EXPECT_FALSE(planner.on_frame().has_value());
            }
            EXPECT_TRUE(planner.on_frame().has_value());
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection: a corrupt frame in the middle of a window, read
// under each policy and fed into the windowed pipeline.

constexpr std::size_t kAntennas = 2;
constexpr std::size_t kSubcarriers = 8;
constexpr std::size_t kPackets = 20;
constexpr std::size_t kCorruptFrame = 10;

csi::CsiSeries stream_series() {
    return testutil::synthetic_series({1.0, 0.8}, {0.2, -0.4}, kPackets,
                                      0.02, 0.01, 77, kSubcarriers);
}

core::WindowFeatureExtractor small_extractor() {
    csi::CsiSeries baseline = testutil::synthetic_series(
        {1.0, 1.0}, {0.1, 0.1}, 12, 0.01, 0.01, 11, kSubcarriers);
    return core::WindowFeatureExtractor(std::move(baseline), {{0, 1}},
                                        {0, 1, 2}, core::FeatureConfig{});
}

stream::StreamingPipeline small_pipeline(std::size_t window,
                                         std::size_t hop) {
    static const core::Model model = testutil::tiny_model({{0, 1}}, {0, 1, 2});
    stream::StreamConfig config;
    config.window = window;
    config.hop = hop;
    return stream::StreamingPipeline(config, small_extractor(), model);
}

/// Runs the read-then-stream path over `bytes` under `policy`.
struct StreamOutcome {
    csi::TraceReadReport report;
    std::uint64_t frames = 0;
    std::vector<stream::WindowResult> windows;
};

StreamOutcome stream_bytes(const std::string& bytes,
                           csi::ReadPolicy policy) {
    StreamOutcome outcome;
    const csi::CsiSeries series =
        csi::fault::read_bytes(bytes, {policy}, &outcome.report);
    stream::StreamingPipeline pipeline = small_pipeline(5, 5);
    for (const csi::CsiFrame& frame : series.frames) {
        ++outcome.frames;
        if (std::optional<stream::WindowResult> result =
                pipeline.push(frame)) {
            // One Omega per (subcarrier, pair): 3 x 1 here.
            EXPECT_EQ(result->features.size(), 3u);
            outcome.windows.push_back(std::move(*result));
        }
    }
    return outcome;
}

std::string corrupt_mid_window_bytes() {
    const std::string bytes =
        csi::fault::serialize(stream_series(), csi::kTraceVersion2);
    const std::size_t record =
        csi::fault::record_bytes(csi::kTraceVersion2, kAntennas,
                                 kSubcarriers);
    // Flip one payload bit inside frame kCorruptFrame — mid-stream and
    // mid-window for the 5/5 tumbling schedule.
    const std::size_t offset =
        csi::fault::kHeaderBytesV2 + kCorruptFrame * record + 24;
    return csi::fault::flip_bit(bytes, offset * 8 + 3);
}

TEST(StreamFaults, StrictPolicyRefusesTheCorruptStream) {
    EXPECT_THROW(stream_bytes(corrupt_mid_window_bytes(),
                              csi::ReadPolicy::kStrict),
                 Error);
}

TEST(StreamFaults, SkipCorruptShiftsTheStreamByOneFrame) {
    const StreamOutcome outcome = stream_bytes(
        corrupt_mid_window_bytes(), csi::ReadPolicy::kSkipCorrupt);
    EXPECT_EQ(outcome.report.frames_skipped, 1u);
    EXPECT_EQ(outcome.report.crc_failures, 1u);
    EXPECT_EQ(outcome.frames, kPackets - 1);
    // 19 surviving frames through a 5/5 tumbling window: 3 windows; the
    // dropped frame shifts the tail, it does not poison a window.
    ASSERT_EQ(outcome.windows.size(), 3u);
    for (std::size_t j = 0; j < outcome.windows.size(); ++j) {
        EXPECT_EQ(outcome.windows[j].first_frame, j * 5);
        EXPECT_EQ(outcome.windows[j].frame_count, 5u);
    }
}

TEST(StreamFaults, StopAtCorruptionStreamsTheCleanPrefix) {
    const StreamOutcome outcome = stream_bytes(
        corrupt_mid_window_bytes(), csi::ReadPolicy::kStopAtCorruption);
    EXPECT_TRUE(outcome.report.stopped_at_corruption);
    EXPECT_EQ(outcome.frames, kCorruptFrame);
    EXPECT_EQ(outcome.windows.size(), 2u);  // frames 10: windows at 5, 10
}

TEST(StreamFaults, TornTailStreamsOnlyFullyLandedFrames) {
    const std::string bytes =
        csi::fault::serialize(stream_series(), csi::kTraceVersion2);
    const std::size_t record =
        csi::fault::record_bytes(csi::kTraceVersion2, kAntennas,
                                 kSubcarriers);
    // 15 frames landed, then stale sector garbage.
    const std::string torn = csi::fault::torn_write(
        bytes, csi::fault::kHeaderBytesV2 + 15 * record + record / 3, 64,
        5);
    const StreamOutcome outcome =
        stream_bytes(torn, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_TRUE(outcome.report.truncated);
    EXPECT_EQ(outcome.frames, 15u);
    EXPECT_EQ(outcome.windows.size(), 3u);
}

TEST(StreamFaults, ChecksumConsistentNonFiniteFrameIsStillCaught) {
    // A writer that serialized NaN: CRC is valid, only the finite-values
    // check can reject it.
    const std::string bytes = csi::fault::patch_payload_double(
        csi::fault::serialize(stream_series(), csi::kTraceVersion2),
        kCorruptFrame, 2, std::numeric_limits<double>::quiet_NaN());

    EXPECT_THROW(stream_bytes(bytes, csi::ReadPolicy::kStrict), Error);

    const StreamOutcome skipped =
        stream_bytes(bytes, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_EQ(skipped.report.non_finite_frames, 1u);
    EXPECT_EQ(skipped.frames, kPackets - 1);
    EXPECT_EQ(skipped.windows.size(), 3u);

    const StreamOutcome stopped =
        stream_bytes(bytes, csi::ReadPolicy::kStopAtCorruption);
    EXPECT_EQ(stopped.frames, kCorruptFrame);
    EXPECT_EQ(stopped.windows.size(), 2u);
}

TEST(StreamFaults, LyingHeaderCannotOverrunTheStream) {
    // Header claims 1000 frames; only 20 exist. The lenient reader
    // reports truncation and the pipeline just sees a shorter stream.
    const std::string bytes = csi::fault::patch_frame_count(
        csi::fault::serialize(stream_series(), csi::kTraceVersion2), 1000);
    const StreamOutcome outcome =
        stream_bytes(bytes, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_TRUE(outcome.report.truncated);
    EXPECT_EQ(outcome.frames, kPackets);
    EXPECT_EQ(outcome.windows.size(), 4u);
}

}  // namespace
}  // namespace wimi
