// Bounded-memory regression for the streaming ingestion paths.
//
// The original sin this guards against: `csi_trace_tool info` and the
// batch pipeline used to call read_trace_file and materialize the whole
// series — O(trace) memory for answers that are O(window) or
// O(antennas). This test writes a synthetic trace far larger than the
// streaming window (>= 10x the ring capacity, tens of megabytes on
// disk), then summarizes it and streams it through the windowed
// pipeline, asserting the process's peak RSS moved by a small fraction
// of the trace size. Linux-only (it reads /proc/self/status); skipped
// elsewhere and under sanitizers, whose shadow memory makes RSS
// meaningless.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "csi/frame.hpp"
#include "csi/summary.hpp"
#include "csi/trace_io.hpp"
#include "pipeline_test_util.hpp"
#include "stream/pipeline.hpp"

namespace wimi {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Peak resident set (VmHWM) of this process in KiB, from
/// /proc/self/status. Returns 0 when unavailable.
std::size_t peak_rss_kib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            std::size_t kib = 0;
            status >> kib;
            return kib;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

constexpr std::size_t kAntennas = 3;
constexpr std::size_t kSubcarriers = 56;
constexpr std::uint64_t kFrames = 20000;
constexpr std::size_t kWindow = 64;

TEST(StreamMemory, LongTraceStreamsInWindowMemory) {
#if !defined(__linux__)
    GTEST_SKIP() << "RSS accounting via /proc is Linux-only";
#else
    if (kSanitized) {
        GTEST_SKIP() << "sanitizer shadow memory skews RSS";
    }
    ASSERT_GT(peak_rss_kib(), 0u) << "cannot read VmHWM";

    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "wimi_stream_memory.wcsi";

    // Write the trace frame by frame — the writer itself must not need
    // the series in memory either.
    {
        csi::TraceWriter writer(path, kAntennas, kSubcarriers);
        csi::CsiFrame frame(kAntennas, kSubcarriers);
        for (std::uint64_t i = 0; i < kFrames; ++i) {
            frame.timestamp_s = static_cast<double>(i) * 0.01;
            frame.rssi_dbm = -42.0;
            for (std::size_t a = 0; a < kAntennas; ++a) {
                for (std::size_t k = 0; k < kSubcarriers; ++k) {
                    frame.at(a, k) = {
                        1.0 + 0.001 * static_cast<double>(i % 97),
                        0.1 * static_cast<double>(a + k)};
                }
            }
            writer.append(frame);
        }
        writer.close();
        ASSERT_EQ(writer.frames_written(), kFrames);
    }
    const std::uintmax_t trace_bytes = std::filesystem::file_size(path);
    // The memory-bound claim only means something when the trace dwarfs
    // the window: >= 10x the ring capacity by frame count, and tens of
    // megabytes of payload.
    ASSERT_GE(kFrames, 10 * kWindow);
    ASSERT_GT(trace_bytes, std::uintmax_t{40} * 1024 * 1024);

    const std::size_t before_kib = peak_rss_kib();

    // O(antennas) summarization (the `csi_trace_tool info` path).
    const csi::TraceSummary summary =
        csi::summarize_trace_file(path, {csi::ReadPolicy::kSkipCorrupt});
    EXPECT_TRUE(summary.report.clean());
    EXPECT_EQ(summary.packets, kFrames);

    // O(window) identification streaming.
    csi::CsiSeries baseline = testutil::synthetic_series(
        {1.0, 1.0, 1.0}, {0.1, -0.1, 0.2}, 16, 0.01, 0.01, 3,
        kSubcarriers);
    stream::StreamConfig config;
    config.window = kWindow;
    config.hop = kWindow;
    const core::Model model =
        testutil::tiny_model({{0, 1}, {1, 2}}, {0, 1, 2, 3});
    stream::StreamingPipeline pipeline(
        config,
        core::WindowFeatureExtractor(std::move(baseline),
                                     {{0, 1}, {1, 2}}, {0, 1, 2, 3},
                                     core::FeatureConfig{}),
        model);
    EXPECT_EQ(pipeline.ring().capacity(), kWindow);

    std::uint64_t windows = 0;
    {
        std::ifstream stream(path, std::ios::binary);
        ASSERT_TRUE(stream.is_open());
        csi::TraceReader reader(stream, {csi::ReadPolicy::kStrict});
        while (std::optional<csi::CsiFrame> frame = reader.next()) {
            if (pipeline.push(*frame)) {
                ++windows;
            }
        }
        EXPECT_TRUE(reader.report().clean());
    }
    EXPECT_EQ(pipeline.frames_consumed(), kFrames);
    EXPECT_EQ(windows, (kFrames - kWindow) / kWindow + 1);
    EXPECT_EQ(pipeline.ring().size(), kWindow);

    const std::size_t after_kib = peak_rss_kib();
    // Loading the trace whole would grow the peak by >= the ~53 MiB
    // payload; summarize + stream together must stay a small fraction
    // of it. 16 MiB leaves generous room for allocator slack and the
    // reader/ring working set (~1 MiB).
    const std::size_t grown_kib = after_kib - before_kib;
    EXPECT_LT(grown_kib, 16u * 1024)
        << "streaming a " << trace_bytes / (1024 * 1024)
        << " MiB trace grew peak RSS by " << grown_kib << " KiB";

    std::filesystem::remove(path);
#endif
}

}  // namespace
}  // namespace wimi
