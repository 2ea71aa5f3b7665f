// Shared plumbing of the WiMi end-to-end benchmark: options, clocks,
// order statistics, layer spans, the result report, the input digest
// and allocation counts. README.md describes the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "csi/frame.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/// The point `seconds` after `from`.
inline Clock::time_point after(Clock::time_point from, double seconds) {
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured time of one run
    bool trace = false;     ///< the per-layer run instead of the end-to-end one
};

/// q-quantile of `values` by nearest rank (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// The time-ordered samples of a run are cut into short slices and a
/// figure is taken from the per-slice values at a rank from the fast
/// end. On a shared VM a neighbour's load slows this process by up to
/// 1.4x for seconds at a time, but every run sees some quiet moments: for
/// one thread the fastest slice (rank 0) is one the host left alone, which
/// a change to the code moves like every other slice. Medians and rates
/// use kSliceSeconds slices; a p99 uses kTailSliceSeconds slices so that
/// each holds enough samples for its tail.
inline constexpr double kSliceSeconds = 0.1;
inline constexpr double kTailSliceSeconds = 1.0;
inline constexpr double kFastestSlice = 0.0;
inline constexpr double kMedianSlice = 0.5;

/// Number of `slice_seconds` slices in `seconds` (at least one).
std::size_t slices_in(double seconds, double slice_seconds = kSliceSeconds);

/// The value at `rank` (0 = the fastest, 0.5 = the median) from the fast
/// end of `values`: the low end when `lower_is_faster`, else the high
/// end. Prints the values as a `slices <name>` line.
double slice_figure(std::string_view name, const std::vector<double>& values,
                    bool lower_is_faster, double rank = kFastestSlice);

/// slice_figure over `slices` consecutive equal slices of `samples` [us]
/// of their q-quantile.
double sliced_quantile(std::string_view name,
                       const std::vector<double>& samples, double q,
                       std::size_t slices, double rank = kFastestSlice);

/// slice_figure over `slices` consecutive equal slices of back-to-back
/// operation times [us] of the operations completed per second.
double sliced_rate(std::string_view name, const std::vector<double>& op_us,
                   std::size_t slices, double rank = kFastestSlice);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 21;

/// Runs `setup` kSetupRepeats times and returns the median wall time [s].
/// `teardown` (untimed) runs before every repeat after the first.
double time_setup(const std::function<void()>& setup,
                  const std::function<void()>& teardown = {});

/// Wall time and call count charged to named layer spans. The traced run
/// opens a span around each public call the benchmark makes into a
/// layer.
class Spans {
public:
    /// Runs fn() and charges its wall time to `name`.
    template <typename Fn>
    decltype(auto) time(std::string_view name, Fn&& fn) {
        const Charge charge{*this, name, Clock::now()};
        return fn();
    }

    void add(std::string_view name, double us, std::uint64_t calls = 1);
    double total_us(std::string_view name) const;
    std::uint64_t calls(std::string_view name) const;

private:
    struct Entry {
        double us = 0.0;
        std::uint64_t calls = 0;
    };
    struct Charge {
        Spans& spans;
        std::string_view name;
        Clock::time_point start;
        ~Charge() { spans.add(name, us_between(start, Clock::now())); }
    };
    std::map<std::string, Entry, std::less<>> entries_;
};

/// The run's output: human-readable lines as the run goes, then one JSON
/// object as the last line of stdout.
class Report {
public:
    /// A metric of the final JSON object (also printed as a line).
    void metric(const std::string& name, double value, const std::string& unit);
    /// A figure printed for people only: the per-workload names the
    /// generic JSON metrics stand for, sample counts, error ratios.
    void show(const std::string& name, double value,
              const std::string& unit) const;
    bool has(const std::string& name) const;

    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    const std::vector<Metric>& metrics() const { return metrics_; }

    /// Prints the JSON result line.
    void finish(bool correct, std::uint64_t attempted,
                std::uint64_t failed) const;

private:
    std::vector<Metric> metrics_;
    bool invalid_ = false;  ///< a metric was not a finite number
};

/// 64-bit FNV-1a over the generated inputs, so two runs can be shown to
/// measure the same inputs.
class Digest {
public:
    void bytes(const void* data, std::size_t size);
    template <typename T>
    void value(const T& v) {
        bytes(&v, sizeof v);
    }
    void series(const wimi::csi::CsiSeries& series);
    std::string hex() const;

private:
    std::uint64_t state_ = 14695981039346656037ull;
};

/// Prints the input digest and the SIMD kernel width in effect.
void print_identity(const std::string& workload, const Digest& digest);

/// Peak resident set size of this process [MiB].
double peak_rss_mb();

/// Allocation totals since process start. Only the traced binary counts:
/// it links alloc_count.cpp, which replaces operator new/delete; the
/// untraced binary links alloc_off.cpp and keeps the stock allocator.
struct AllocCounts {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};
bool alloc_counting();
AllocCounts alloc_counts();

/// Reports allocs_per_op and alloc_bytes_per_op over one call of `pass`,
/// which performs `ops` operations.
void report_allocs(const std::function<void()>& pass, double ops,
                   Report& report);

/// obs.overhead_share: the median wall time of `pass` with observability
/// enabled over disabled, minus one. The two arms alternate for
/// `seconds`.
double obs_overhead_share(const std::function<void()>& pass, double seconds);

/// What a workload run adds to the JSON result.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

Outcome run_batch(const Options& options, Report& report);
Outcome run_stream(const Options& options, Report& report);
Outcome run_serve(const Options& options, Report& report);

/// Name and unit of each metric a run prints: end_to_end for the
/// untraced run, per_layer for the traced one (BENCHMARK.json).
struct MetricSpec {
    const char* name;
    const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

}  // namespace perfbench
