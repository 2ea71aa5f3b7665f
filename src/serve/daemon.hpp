// wimi_serve daemon: the long-running inference service.
//
// Everything below the process boundary already existed — a persisted
// wimi.model.v1, the batched InferenceEngine, the exec pool, the obs
// telemetry plane. The Daemon is the piece that *stays up*: it listens
// on a Unix-domain socket, speaks the serve/wire protocol, and turns a
// stream of independent client requests into amortized batched
// predictions:
//
//   - Coalescing: concurrent requests land in one bounded admission
//     queue; a single batcher thread drains up to `max_batch` of them
//     at a time into one engine call (exec::parallel_map fan-out), so
//     batch size adapts to queue depth — idle traffic is served
//     per-request, bursts amortize per-call overhead exactly the way
//     exec::parallel_map amortizes per-item work.
//   - Admission control: when the queue is full the request is answered
//     *immediately* with an explicit kOverloaded response. Overload
//     sheds load; it never hangs a client or grows memory unboundedly.
//   - Hot-swap: swap_model() atomically replaces a
//     shared_ptr<const InferenceEngine>. The batcher snapshots the
//     pointer once per batch, so in-flight batches finish on the model
//     they started with and no batch ever mixes two models — every
//     response carries the digest of the model that produced it.
//   - Drain-on-stop: stop() refuses new work (kShuttingDown), lets the
//     batcher finish every admitted request, and only then tears down
//     connections. An accepted request is always answered.
//
// Telemetry (src/obs): histograms `serve.daemon.queue_us` (admission
// queue wait), `serve.daemon.batch_wall_us` (batch execution),
// `serve.daemon.e2e_us` (receive-to-response), `serve.daemon.batch.size`;
// counters `serve.daemon.requests`, `serve.daemon.responses.ok`,
// `serve.daemon.rejected.{overload,bad_request,shutting_down}`,
// `serve.daemon.server_errors`, `serve.daemon.batches`,
// `serve.daemon.swaps`, `serve.daemon.connections`,
// `serve.daemon.unknown_kind`, `serve.daemon.sampler.{retained,dropped}`;
// gauge `serve.daemon.queue_depth`. All of it flows through the PR 6
// exporter when the host process runs one (wimi_serve does).
//
// Request-scoped observability (DESIGN.md §12): every decoded request
// runs under a ScopedObsContext seeded from the wire-level trace
// context, so daemon-side request/engine spans parent under the
// caller's client-side span — one trace id across two processes. Each
// request also lands in the obs::FlightRecorder black box (outcome,
// queue wait, batch size, digest, e2e latency) and passes through the
// obs::TailSampler, which keeps full telemetry only for failures and
// the latency tail. The kStats / kHealth / kDumpFlight admin request
// kinds expose stats + metrics snapshots, readiness/liveness, and the
// flight ring over the same socket.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/flight.hpp"
#include "obs/sampler.hpp"
#include "serve/inference.hpp"
#include "serve/wire.hpp"

namespace wimi::serve {

struct DaemonOptions {
    /// Unix-domain socket path. Bound at start(); an existing socket
    /// file is replaced. Must fit sockaddr_un (~107 bytes).
    std::string socket_path;
    /// wimi.model.v1 artifact served at startup.
    std::string model_path;
    /// Admission bound: requests beyond this many waiting are rejected
    /// with kOverloaded instead of queued.
    std::size_t max_queue = 128;
    /// Coalescing cap: the batcher drains at most this many requests
    /// into one engine call.
    std::size_t max_batch = 32;
    /// Fan-out width inside a batch (0 = exec pool default, 1 = serial).
    std::size_t batch_threads = 0;
    /// Artificial per-batch stall before prediction. Zero in production;
    /// tests and benches use it to force queue buildup so coalescing and
    /// overload paths are exercised deterministically.
    std::chrono::microseconds batch_stall{0};
    /// Whether kSwapModel / kShutdown requests are honored (a client
    /// with socket access is trusted by default; set false to refuse).
    bool allow_swap = true;
    bool allow_shutdown = true;
    /// Flight-recorder ring (capacity 0 disables it; snapshot_path
    /// enables auto-snapshots on overload/error bursts).
    obs::FlightRecorderOptions flight;
    /// Tail-sampling policy for per-request telemetry retention.
    obs::TailSamplerOptions sampler;
};

/// Monotonic counters snapshot (see also the serve.daemon.* metrics).
struct DaemonStats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;        ///< decoded requests of any type
    std::uint64_t responses_ok = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_bad_request = 0;
    std::uint64_t rejected_shutting_down = 0;
    std::uint64_t server_errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t max_batch_size = 0;  ///< largest coalesced batch seen
    std::uint64_t swaps = 0;
    /// Per-predict accounting. At quiescence (no requests in flight)
    /// admitted == completed + shed + failed holds exactly:
    /// every predict that arrived was either answered from a batch
    /// (ok -> completed, error -> failed) or rejected at admission
    /// (overload / shutting down -> shed).
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    /// CRC-valid requests whose type the daemon does not recognize
    /// (protocol-version skew), answered with kBadRequest.
    std::uint64_t unknown_kinds = 0;
    /// Tail-sampler decisions (see obs::TailSampler).
    std::uint64_t sampler_retained = 0;
    std::uint64_t sampler_dropped = 0;
    /// Total records appended to the flight ring.
    std::uint64_t flight_records = 0;
};

class Daemon {
public:
    /// Loads the model (via the validating process-wide cache) and
    /// prepares the socket state. Throws wimi::Error when the model
    /// does not load or the socket path is unusable. Nothing runs
    /// until start().
    explicit Daemon(DaemonOptions options);

    /// stop()s.
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Binds the socket and launches the accept + batcher threads.
    void start();

    /// Graceful shutdown: stop accepting, answer queued work, tear down
    /// connections, join every thread. Idempotent; safe without start().
    void stop();

    bool running() const;

    const std::string& socket_path() const {
        return options_.socket_path;
    }

    /// Digest of the engine currently serving (changes on swap).
    std::string model_digest() const;

    /// Atomically replaces the serving engine with the artifact at
    /// `path`. In-flight batches finish on the old engine. On failure
    /// the old engine keeps serving, `error` (when non-null) gets the
    /// reason, and false is returned.
    bool swap_model(const std::filesystem::path& path,
                    std::string* error = nullptr);

    /// True once a client's kShutdown request was accepted. The daemon
    /// keeps draining; the owner is expected to call stop().
    bool shutdown_requested() const;

    DaemonStats stats() const;

    /// The `wimi.stats.v1` admin document served for kStats: uptime,
    /// model identity, DaemonStats counters, and an embedded
    /// wimi.metrics.v1 snapshot.
    std::string stats_json() const;

    /// The `wimi.health.v1` admin document served for kHealth:
    /// liveness/readiness with queue-depth and swap-in-progress detail.
    std::string health_json() const;

    /// The black box (kDumpFlight serves flight_recorder().dump_json()).
    const obs::FlightRecorder& flight_recorder() const { return flight_; }

    /// True while swap_model() is loading a replacement engine (the old
    /// engine keeps serving throughout).
    bool swap_in_progress() const {
        return swap_in_progress_.load(std::memory_order_relaxed);
    }

private:
    /// One admitted request waiting for (or holding) its answer.
    struct Pending {
        wire::Request request;
        std::chrono::steady_clock::time_point received;
        /// Trace context captured on the connection thread (under the
        /// daemon-side request span), reinstalled around the engine
        /// call so batch-side spans parent under the caller's trace.
        obs::ObsContext ctx;
        /// Arrival on the trace clock, for the flight record.
        double arrival_ts_us = 0.0;
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        wire::Response response;
    };

    /// One accepted client connection and its reader thread.
    struct Connection {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> finished{false};
    };

    std::shared_ptr<const InferenceEngine> current_engine() const;
    void accept_loop();
    void serve_connection(int fd, Connection* connection);
    wire::Response handle_control(const wire::Request& request);
    /// Admission control: queues the request or fills a rejection into
    /// `rejection` and returns nullptr.
    std::shared_ptr<Pending> try_enqueue(wire::Request request,
                                         wire::Response* rejection);
    void batch_loop();
    void process_batch(
        const std::vector<std::shared_ptr<Pending>>& batch);
    void reap_finished_connections();

    DaemonOptions options_;

    mutable std::mutex engine_mutex_;
    std::shared_ptr<const InferenceEngine> engine_;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<std::shared_ptr<Pending>> queue_;
    bool draining_ = false;     // reject new work with kShuttingDown
    bool batch_stop_ = false;   // batcher exits once the queue is empty

    mutable std::mutex lifecycle_mutex_;
    bool running_ = false;
    bool shutdown_requested_ = false;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};  // unblocks the accept poll on stop
    std::thread accept_thread_;
    std::thread batch_thread_;

    obs::FlightRecorder flight_;
    obs::TailSampler sampler_;
    std::chrono::steady_clock::time_point start_time_{};
    std::atomic<bool> swap_in_progress_{false};

    std::mutex connections_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;

    // Stats counters (relaxed; snapshot via stats()).
    std::atomic<std::uint64_t> connections_total_{0};
    std::atomic<std::uint64_t> requests_total_{0};
    std::atomic<std::uint64_t> responses_ok_{0};
    std::atomic<std::uint64_t> rejected_overload_{0};
    std::atomic<std::uint64_t> rejected_bad_request_{0};
    std::atomic<std::uint64_t> rejected_shutting_down_{0};
    std::atomic<std::uint64_t> server_errors_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> max_batch_size_{0};
    std::atomic<std::uint64_t> swaps_{0};
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> unknown_kinds_{0};
};

}  // namespace wimi::serve
