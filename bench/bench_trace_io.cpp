// Trace I/O throughput: what does WCSI v2 integrity checking cost?
//
// Serializes a realistic capture (3 antennas x 30 subcarriers, 2000
// packets) to memory and back under both format versions, then scans a
// deliberately corrupted v2 trace under the skip-corrupt policy. The v2
// column prices the CRC-32 per frame + header against the unchecked v1
// path through the same codec; the recovery row shows that degraded
// reads cost the same as clean ones.
//
// Each row is the fastest of kPasses passes, which drops passes a busy
// host slowed. Writes BENCH_trace_io.json: MB/s per row plus
// v2_read_over_v1_read, a ratio of two reads in the same run, so it does
// not depend on the machine. CI gates it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "csi/trace_io.hpp"

namespace {

using namespace wimi;

constexpr std::size_t kPackets = 2000;
constexpr int kPasses = 9;
constexpr const char* kReportPath = "BENCH_trace_io.json";

struct Row {
    std::string operation;
    std::string format;
    double mb = 0.0;
    double seconds_per_pass = 0.0;

    double mb_per_s() const { return mb / seconds_per_pass; }
};

csi::CsiSeries make_series() {
    Rng rng(42);
    csi::CsiSeries series;
    for (std::size_t p = 0; p < kPackets; ++p) {
        csi::CsiFrame frame(3, 30);
        frame.timestamp_s = 0.01 * static_cast<double>(p);
        frame.rssi_dbm = -40.0;
        for (Complex& h : frame.raw()) {
            h = Complex(rng.gaussian(), rng.gaussian());
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

/// Seconds taken by the fastest of kPasses calls of `pass`.
template <typename Pass>
double fastest_pass_s(Pass&& pass) {
    double best = 0.0;
    for (int i = 0; i < kPasses; ++i) {
        const auto start = std::chrono::steady_clock::now();
        pass();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        best = i == 0 ? s : std::min(best, s);
    }
    return best;
}

}  // namespace

int main() {
    wimi::bench::RunScope run("bench_trace_io");
    const auto series = make_series();

    std::vector<Row> rows;
    std::string v2_bytes;
    double read_v1_s = 0.0;
    double read_v2_s = 0.0;
    for (const std::uint32_t version :
         {csi::kTraceVersion1, csi::kTraceVersion2}) {
        const char* format =
            version == csi::kTraceVersion1 ? "v1" : "v2";
        // Write.
        std::string bytes;
        const double write_s = fastest_pass_s([&] {
            std::ostringstream out;
            csi::write_trace(out, series, {version});
            bytes = out.str();
        });
        const double mb =
            static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
        rows.push_back({"write", format, mb, write_s});

        // Read (strict).
        bool intact = true;
        const double read_s = fastest_pass_s([&] {
            std::istringstream in(bytes);
            intact = intact && csi::read_trace(in).packet_count() == kPackets;
        });
        if (!intact) {
            std::cerr << "read mismatch\n";
            return 1;
        }
        rows.push_back({"read", format, mb, read_s});
        if (version == csi::kTraceVersion2) {
            v2_bytes = bytes;
            read_v2_s = read_s;
        } else {
            read_v1_s = read_s;
        }
    }

    // Degraded read: 1% of frames corrupted, skip-corrupt policy.
    std::string damaged = v2_bytes;
    const std::size_t record = 16 + 3 * 30 * 16 + 4;
    for (std::size_t f = 0; f < kPackets; f += 100) {
        const std::size_t offset = 32 + f * record + 24;
        damaged[offset] = static_cast<char>(damaged[offset] ^ 0x01);
    }
    csi::TraceReadReport report;
    const double skip_s = fastest_pass_s([&] {
        std::istringstream in(damaged);
        csi::read_trace(in, {csi::ReadPolicy::kSkipCorrupt}, &report);
    });
    rows.push_back({"read 1% corrupt", "v2 skip",
                    static_cast<double>(damaged.size()) / (1024.0 * 1024.0),
                    skip_s});

    TextTable table({"operation", "format", "MB", "ms/pass", "MB/s"});
    for (const Row& row : rows) {
        table.add_row({row.operation, row.format, format_double(row.mb, 1),
                       format_double(row.seconds_per_pass * 1e3, 2),
                       format_double(row.mb_per_s(), 0)});
    }
    // Throughput ratio of the strict v2 read to the v1 read.
    const double v2_over_v1 = read_v1_s / read_v2_s;

    std::cout << "=== WCSI trace I/O throughput (" << kPackets
              << " packets, 3x30, fastest of " << kPasses
              << " passes) ===\n\n";
    table.print(std::cout);
    std::cout << "\nDegraded read recovered " << report.frames_recovered
              << "/" << report.frames_declared << " frames, "
              << report.crc_failures << " CRC failures detected.\n"
              << "v2 read / v1 read throughput: "
              << format_double(v2_over_v1, 2) << "\n";

    std::FILE* out = std::fopen(kReportPath, "w");
    if (out == nullptr) {
        std::cerr << "could not write " << kReportPath << '\n';
        return 1;
    }
    std::fprintf(out,
                 "{\"schema\":\"wimi.bench_trace_io.v1\","
                 "\"packets\":%zu,\"antennas\":3,\"subcarriers\":30,"
                 "\"passes\":%d,\"rows\":[",
                 kPackets, kPasses);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        std::fprintf(out,
                     "%s{\"operation\":\"%s\",\"format\":\"%s\","
                     "\"mb\":%.6f,\"ms_per_pass\":%.6f,"
                     "\"mb_per_s\":%.3f}",
                     i == 0 ? "" : ",", row.operation.c_str(),
                     row.format.c_str(), row.mb,
                     row.seconds_per_pass * 1e3, row.mb_per_s());
    }
    std::fprintf(out,
                 "],\"v2_read_over_v1_read\":%.6f,"
                 "\"degraded\":{\"frames_declared\":%llu,"
                 "\"frames_recovered\":%llu,\"crc_failures\":%llu}}\n",
                 v2_over_v1,
                 static_cast<unsigned long long>(report.frames_declared),
                 static_cast<unsigned long long>(report.frames_recovered),
                 static_cast<unsigned long long>(report.crc_failures));
    std::fclose(out);
    std::cout << "report: " << kReportPath << '\n';
    return 0;
}
