#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "simd/simd.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},     {"accuracy", "ratio"}, {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"}, {"p50_us", "us"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"p99_us", "us"},
    {"csi.soa_build_us", "us"},
    {"csi.frame_decode_us", "us"},
    {"csi.ring_window_us", "us"},
    {"core.feature_us", "us"},
    {"core.inlier_mask_us", "us"},
    {"core.window_extract_us", "us"},
    {"core.feature_self_us", "us"},
    {"dsp.wavelet_us", "us"},
    {"dsp.wavelet_calls_per_op", "count"},
    {"simd.complex_ratio_us", "us"},
    {"simd.feature_speedup", "ratio"},
    {"ml.scale_us", "us"},
    {"ml.svm_predict_us", "us"},
    {"ml.psi_gate_us", "us"},
    {"stream.push_us", "us"},
    {"stream.smoother_us", "us"},
    {"stream.windows", "count"},
    {"stream.changes", "count"},
    {"stream.drift_gated", "count"},
    {"serve.encode_series_us", "us"},
    {"serve.decode_series_us", "us"},
    {"serve.request_bytes_series", "bytes"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_wall_p50_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.engine_series_us", "us"},
    {"serve.engine_features_us", "us"},
    {"serve.baseline_repeat_share", "ratio"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.features_p99_us", "us"},
    {"serve.max_rate_per_s", "1/s"},
    {"serve.saturated_per_s", "1/s"},
    {"serve.series_p50_us", "us"},
    {"obs.overhead_share", "ratio"},
    {"allocs_per_op", "count"},
    {"alloc_bytes_per_op", "bytes"},
    {"unattributed_share", "ratio"},
    {"loadgen.lag_p99_us", "us"},
    {"trace_overhead_share", "ratio"},
};

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(
        std::lround(q * static_cast<double>(values.size() - 1)));
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank),
                     values.end());
    return values[rank];
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

namespace {

/// fn(slice) of each of `slices` consecutive equal slices of `samples`.
template <typename Fn>
std::vector<double> per_slice(const std::vector<double>& samples,
                              std::size_t slices, Fn&& fn) {
    if (samples.size() < slices) {
        return {fn(samples)};
    }
    std::vector<double> values;
    for (std::size_t i = 0; i < slices; ++i) {
        const auto first = samples.begin() + static_cast<std::ptrdiff_t>(
                                                 i * samples.size() / slices);
        const auto last = samples.begin() +
                          static_cast<std::ptrdiff_t>((i + 1) * samples.size() /
                                                      slices);
        values.push_back(fn(std::vector<double>(first, last)));
    }
    return values;
}

}  // namespace

std::size_t slices_in(double seconds, double slice_seconds) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / slice_seconds)));
}

double slice_figure(std::string_view name, const std::vector<double>& values,
                    bool lower_is_faster, double rank) {
    std::cout << "slices " << name;
    for (const double v : values) {
        std::cout << ' ' << v;
    }
    std::cout << '\n';
    return quantile(values, lower_is_faster ? rank : 1.0 - rank);
}

double sliced_quantile(std::string_view name,
                       const std::vector<double>& samples, double q,
                       std::size_t slices, double rank) {
    return slice_figure(name,
                        per_slice(samples, slices,
                                  [q](const std::vector<double>& s) {
                                      return quantile(s, q);
                                  }),
                        true, rank);
}

double sliced_rate(std::string_view name, const std::vector<double>& op_us,
                   std::size_t slices, double rank) {
    return slice_figure(
        name,
        per_slice(op_us, slices,
                  [](const std::vector<double>& s) {
                      const double total_us =
                          mean(s) * static_cast<double>(s.size());
                      return total_us > 0.0
                                 ? static_cast<double>(s.size()) * 1e6 / total_us
                                 : 0.0;
                  }),
        false, rank);
}

double time_setup(const std::function<void()>& setup,
                  const std::function<void()>& teardown) {
    std::vector<double> runs;
    std::cout << "setup_runs_s";
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (i > 0 && teardown) {
            teardown();
        }
        const auto start = Clock::now();
        setup();
        runs.push_back(seconds_since(start));
        std::cout << ' ' << runs.back();
    }
    std::cout << '\n';
    return quantile(runs, 0.5);
}

void Spans::add(std::string_view name, double us, std::uint64_t calls) {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        it = entries_.emplace(std::string(name), Entry{}).first;
    }
    it->second.us += us;
    it->second.calls += calls;
}

double Spans::total_us(std::string_view name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.us;
}

std::uint64_t Spans::calls(std::string_view name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.calls;
}

namespace {

std::string format_number(double value) {
    std::ostringstream out;
    out.precision(12);
    out << value;
    return out.str();
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
    if (!std::isfinite(value)) {
        std::cout << "invalid metric " << name << " (not finite)\n";
        invalid_ = true;
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    std::cout << "metric " << name << " = " << format_number(value) << ' '
              << unit << '\n';
}

void Report::show(const std::string& name, double value,
                  const std::string& unit) const {
    std::cout << "  " << name << " = " << format_number(value) << ' ' << unit
              << '\n';
}

bool Report::has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
}

void Report::finish(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct && !invalid_ ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out << (i > 0 ? ", " : "") << '"' << m.name
            << "\": {\"value\": " << format_number(m.value)
            << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

void Digest::bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state_ ^= p[i];
        state_ *= 1099511628211ull;
    }
}

void Digest::series(const wimi::csi::CsiSeries& series) {
    for (const wimi::csi::CsiFrame& frame : series.frames) {
        value(frame.timestamp_s);
        value(frame.rssi_dbm);
        bytes(frame.raw().data(), frame.raw().size_bytes());
    }
}

std::string Digest::hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
}

void print_identity(const std::string& workload, const Digest& digest) {
    std::cout << "inputs workload=" << workload << " digest=" << digest.hex()
              << " simd_isa=" << wimi::simd::effective_isa()
              << " simd_double_lanes=" << wimi::simd::double_lanes()
              << " hardware_threads=" << wimi::exec::hardware_threads()
              << '\n';
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_allocs(const std::function<void()>& pass, double ops,
                   Report& report) {
    const AllocCounts before = alloc_counts();
    pass();
    const AllocCounts after = alloc_counts();
    report.metric("allocs_per_op",
                  static_cast<double>(after.count - before.count) / ops,
                  "count");
    report.metric("alloc_bytes_per_op",
                  static_cast<double>(after.bytes - before.bytes) / ops,
                  "bytes");
}

double obs_overhead_share(const std::function<void()>& pass,
                          double seconds) {
    const bool configured = wimi::obs::enabled();
    std::vector<double> on_us;
    std::vector<double> off_us;
    const auto deadline = after(Clock::now(), seconds);
    for (int round = 0; round < 2 || Clock::now() < deadline; ++round) {
        // Alternate which arm goes first so drift cancels.
        for (const bool on : {round % 2 == 0, round % 2 != 0}) {
            wimi::obs::set_enabled(on);
            const auto start = Clock::now();
            pass();
            (on ? on_us : off_us).push_back(us_between(start, Clock::now()));
        }
    }
    wimi::obs::set_enabled(configured);
    const double off = quantile(off_us, 0.5);
    return off > 0.0 ? quantile(on_us, 0.5) / off - 1.0 : 0.0;
}

}  // namespace perfbench
