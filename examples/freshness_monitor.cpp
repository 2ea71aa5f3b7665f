// Freshness monitor: detect changed liquid without opening the bottle.
//
// The paper's introduction: "expired liquid such as milk can be detected
// without requiring to open the bottle or taste it." Spoilage changes a
// liquid's ionic content and hence its dielectric loss; this example
// models fresh vs soured milk as two dielectric states, enrolls both,
// and then *monitors* the bottle as a stream: day-by-day CSI flows
// through the windowed streaming pipeline (src/stream), which flags the
// moment the smoothed verdict flips to "Spoiled milk".
//
// Three modes:
//
//   freshness_monitor                      in-process demo: train, then
//                                          stream five simulated days
//                                          through StreamingPipeline
//   freshness_monitor record <dir>         producer half of the live
//       [--days n] [--packets n]           drill: write <dir>/baseline
//       [--sleep-ms n]                     .wcsi, then append each day's
//                                          capture to <dir>/target.wcsi
//                                          via TraceWriter (the file is
//                                          a valid container after every
//                                          frame; --sleep-ms paces days)
//   freshness_monitor follow <dir>         consumer half: rebuild the
//       [--window n] [--hop n]             same model (same seeds), tail
//       [--idle-timeout-ms n]              <dir>/target.wcsi with
//       [--expect-change]                  TraceTailer while it grows,
//                                          and report material changes.
//                                          --expect-change makes the
//                                          exit code assert that spoilage
//                                          was detected (e2e drill).
//
// record and follow run in different processes; they agree on the model
// because training is deterministic in the shared seeds.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/streaming_feature.hpp"
#include "core/wimi.hpp"
#include "csi/trace_io.hpp"
#include "dsp/stats.hpp"
#include "rf/material.hpp"
#include "rf/propagation.hpp"
#include "sim/scenario.hpp"
#include "stream/pipeline.hpp"
#include "stream/tailer.hpp"

namespace {

using namespace wimi;

// Souring milk: lactose ferments to lactic acid, raising the ionic
// conductivity day by day. Day 0 is the library's stock milk model.
rf::MaterialProperties milk_at_day(int day) {
    rf::MaterialProperties milk = rf::material_for(rf::Liquid::kMilk);
    milk.conductivity += 0.45 * static_cast<double>(day);
    return milk;
}

// Shared seeds: record and follow must derive bit-identical calibration
// and training state in separate processes.
constexpr std::uint64_t kCalibrationSeed = 3001;
constexpr std::uint64_t kEnrollSeed = 13;
constexpr std::uint64_t kMonitorSessionSeed = 9907;

/// Calibrates and trains the fresh-vs-spoiled model; deterministic in
/// the seeds above.
core::Wimi train_monitor(const sim::Scenario& scenario,
                         const sim::ScenarioConfig& setup) {
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(kCalibrationSeed));

    Rng rng(kEnrollSeed);
    const auto capture_state = [&](const rf::MaterialProperties& state,
                                   std::uint64_t seed) {
        auto session = scenario.make_session(seed);
        sim::MeasurementPair m;
        m.baseline = session.capture(scenario.scene(nullptr),
                                     setup.packets);
        m.target =
            session.capture(scenario.scene(&state), setup.packets);
        return m;
    };

    const auto fresh = milk_at_day(0);
    const auto spoiled = milk_at_day(4);
    for (int rep = 0; rep < 10; ++rep) {
        const auto mf = capture_state(fresh, rng.next_u64());
        wimi.enroll("Fresh milk", mf.baseline, mf.target);
        const auto ms = capture_state(spoiled, rng.next_u64());
        wimi.enroll("Spoiled milk", ms.baseline, ms.target);
    }
    wimi.train();
    return wimi;
}

/// One capture session spanning the whole monitoring campaign: the
/// baseline (empty scene) first, then one target capture per day with
/// the souring milk in place — the streaming analog of the paper's
/// "record empty, pour, record again", except the bottle stays and the
/// days pass. Timestamps are re-based so the stream is monotonic.
struct MonitorCapture {
    csi::CsiSeries baseline;
    std::vector<csi::CsiSeries> days;  ///< days[d] = capture at day d
};

MonitorCapture capture_campaign(const sim::Scenario& scenario, int days,
                                std::size_t packets_per_day) {
    MonitorCapture out;
    auto session = scenario.make_session(kMonitorSessionSeed);
    out.baseline =
        session.capture(scenario.scene(nullptr), packets_per_day);
    for (int day = 0; day < days; ++day) {
        const auto state = milk_at_day(day);
        csi::CsiSeries capture =
            session.capture(scenario.scene(&state), packets_per_day);
        // Each capture starts at t=0; shift so the day streams are
        // consecutive (1 s of guard space between days).
        const double day_offset =
            static_cast<double>(day + 1) *
            (capture.frames.back().timestamp_s + 1.0);
        for (auto& frame : capture.frames) {
            frame.timestamp_s += day_offset;
        }
        out.days.push_back(std::move(capture));
    }
    return out;
}

void print_window(const stream::WindowResult& r) {
    std::cout << "  t=" << r.last_timestamp_s << "s window "
              << r.window_index << ": raw=" << r.raw_name
              << " stable=" << (r.stable_name.empty() ? "?" : r.stable_name)
              << '\n';
    if (r.changed) {
        std::cout << "*** material change at t=" << r.last_timestamp_s
                  << "s (window " << r.window_index << "): now "
                  << r.stable_name << " ***\n";
    }
}

int run_demo() {
    std::cout << "WiMi freshness monitor demo (streaming)\n"
              << "---------------------------------------\n";
    sim::ScenarioConfig setup;
    setup.environment = rf::Environment::kLab;
    const sim::Scenario scenario(setup);
    const core::Wimi wimi = train_monitor(scenario, setup);

    constexpr int kDays = 5;
    constexpr std::size_t kPacketsPerDay = 40;
    const MonitorCapture campaign =
        capture_campaign(scenario, kDays, kPacketsPerDay);

    stream::StreamConfig config;
    config.window = setup.packets;  // match the enrolled capture length
    config.hop = setup.packets / 2;
    stream::StreamingPipeline pipeline(
        config,
        core::make_window_extractor(wimi, campaign.baseline),
        wimi.model());

    std::cout << "\nmonitoring " << kDays << " days, " << kPacketsPerDay
              << " packets/day, window " << config.window << " hop "
              << config.hop << ":\n";
    for (int day = 0; day < kDays; ++day) {
        std::cout << "day " << day << " (theoretical Omega "
                  << rf::theoretical_material_feature(
                         milk_at_day(day), csi::kDefaultCenterFrequencyHz)
                  << "):\n";
        for (const auto& frame : campaign.days[day].frames) {
            if (auto result = pipeline.push(frame)) {
                print_window(*result);
            }
        }
    }
    std::cout << "\nstream done: " << pipeline.frames_consumed()
              << " frames, " << pipeline.windows_emitted() << " windows, "
              << pipeline.changes() << " material change(s)\n"
              << "Expected: the verdict flips to 'Spoiled milk' around "
                 "day 3-4.\n";
    return pipeline.changes() >= 1 ? 0 : 1;
}

int run_record(const std::string& dir, int days,
               std::size_t packets_per_day, int sleep_ms) {
    sim::ScenarioConfig setup;
    setup.environment = rf::Environment::kLab;
    const sim::Scenario scenario(setup);
    const MonitorCapture campaign =
        capture_campaign(scenario, days, packets_per_day);

    std::filesystem::create_directories(dir);
    const std::string baseline_path = dir + "/baseline.wcsi";
    const std::string target_path = dir + "/target.wcsi";
    csi::write_trace_file(baseline_path, campaign.baseline);
    std::cout << "wrote " << baseline_path << " ("
              << campaign.baseline.packet_count() << " packets)\n";

    csi::TraceWriter writer(target_path,
                            campaign.baseline.antenna_count(),
                            campaign.baseline.subcarrier_count());
    for (int day = 0; day < days; ++day) {
        for (const auto& frame : campaign.days[day].frames) {
            writer.append(frame);
        }
        std::cout << "day " << day << ": appended "
                  << campaign.days[day].packet_count() << " packets ("
                  << writer.frames_written() << " total)\n";
        if (sleep_ms > 0 && day + 1 < days) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleep_ms));
        }
    }
    writer.close();
    std::cout << "recording complete: " << writer.frames_written()
              << " frames in " << target_path << '\n';
    return 0;
}

int run_follow(const std::string& dir, std::size_t window, std::size_t hop,
               std::uint32_t idle_timeout_ms, bool expect_change) {
    sim::ScenarioConfig setup;
    setup.environment = rf::Environment::kLab;
    const sim::Scenario scenario(setup);
    // Same seeds as the recorder => the identical model, derived in this
    // process; only the CSI traces cross the filesystem.
    const core::Wimi wimi = train_monitor(scenario, setup);

    const csi::CsiSeries baseline =
        csi::read_trace_file(dir + "/baseline.wcsi");

    stream::StreamConfig config;
    config.window = window;
    config.hop = hop;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, baseline),
        wimi.model());

    stream::TailerConfig tail;
    tail.idle_timeout_ms = idle_timeout_ms;
    stream::TraceTailer tailer(dir + "/target.wcsi", tail);
    std::cout << "following " << dir << "/target.wcsi (window " << window
              << ", hop " << hop << ")...\n";
    while (auto frame = tailer.next()) {
        if (auto result = pipeline.push(*frame)) {
            print_window(*result);
        }
    }
    std::cout << "stream idle: " << pipeline.frames_consumed()
              << " frames, " << pipeline.windows_emitted() << " windows, "
              << pipeline.changes() << " material change(s), final verdict "
              << (pipeline.stable_label() >= 0
                      ? wimi.database().material_name(
                            pipeline.stable_label())
                      : std::string("n/a"))
              << '\n';
    if (expect_change) {
        const bool spoilage_flagged =
            pipeline.changes() >= 1 &&
            pipeline.stable_label() >= 0 &&
            wimi.database().material_name(pipeline.stable_label()) ==
                "Spoiled milk";
        return spoilage_flagged ? 0 : 1;
    }
    return 0;
}

int usage() {
    std::cerr
        << "usage:\n"
        << "  freshness_monitor\n"
        << "  freshness_monitor record <dir> [--days n] [--packets n]"
        << " [--sleep-ms n]\n"
        << "  freshness_monitor follow <dir> [--window n] [--hop n]"
        << " [--idle-timeout-ms n] [--expect-change]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc == 1) {
            return run_demo();
        }
        const std::string mode = argv[1];
        if (argc < 3) {
            return usage();
        }
        const std::string dir = argv[2];
        if (mode == "record") {
            int days = 5;
            std::size_t packets = 40;
            int sleep_ms = 0;
            for (int i = 3; i + 1 < argc; i += 2) {
                const std::string flag = argv[i];
                if (flag == "--days") {
                    days = std::stoi(argv[i + 1]);
                } else if (flag == "--packets") {
                    packets = std::stoul(argv[i + 1]);
                } else if (flag == "--sleep-ms") {
                    sleep_ms = std::stoi(argv[i + 1]);
                } else {
                    return usage();
                }
            }
            return run_record(dir, days, packets, sleep_ms);
        }
        if (mode == "follow") {
            std::size_t window = 20;
            std::size_t hop = 10;
            std::uint32_t idle_timeout_ms = 5000;
            bool expect_change = false;
            for (int i = 3; i < argc; ++i) {
                const std::string flag = argv[i];
                if (flag == "--expect-change") {
                    expect_change = true;
                } else if (i + 1 < argc && flag == "--window") {
                    window = std::stoul(argv[++i]);
                } else if (i + 1 < argc && flag == "--hop") {
                    hop = std::stoul(argv[++i]);
                } else if (i + 1 < argc && flag == "--idle-timeout-ms") {
                    idle_timeout_ms = static_cast<std::uint32_t>(
                        std::stoul(argv[++i]));
                } else {
                    return usage();
                }
            }
            return run_follow(dir, window, hop, idle_timeout_ms,
                              expect_change);
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
