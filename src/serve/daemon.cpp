#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace wimi::serve {
namespace {

constexpr const char* kLogComponent = "serve.daemon";

double us_since(std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end) {
    const std::chrono::duration<double, std::micro> elapsed = end - start;
    return elapsed.count();
}

void close_if_open(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/// wire::Status and obs::FlightOutcome share values by construction.
obs::FlightOutcome to_flight_outcome(wire::Status status) noexcept {
    return static_cast<obs::FlightOutcome>(
        static_cast<std::uint32_t>(status));
}

void append_json_bool(std::string& out, const char* key, bool value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += value ? "true" : "false";
}

void append_json_u64(std::string& out, const char* key, std::uint64_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      flight_(options_.flight),
      sampler_(options_.sampler) {
    ensure(!options_.socket_path.empty(),
           "Daemon: socket_path must be set");
    sockaddr_un probe{};
    ensure(options_.socket_path.size() < sizeof(probe.sun_path),
           "Daemon: socket_path too long for sockaddr_un");
    ensure(options_.max_queue >= 1, "Daemon: max_queue must be >= 1");
    ensure(options_.max_batch >= 1, "Daemon: max_batch must be >= 1");
    engine_ = InferenceEngine::load_cached(options_.model_path);
    flight_.intern_digest(engine_->digest());
}

Daemon::~Daemon() { stop(); }

std::shared_ptr<const InferenceEngine> Daemon::current_engine() const {
    const std::lock_guard<std::mutex> lock(engine_mutex_);
    return engine_;
}

std::string Daemon::model_digest() const {
    return current_engine()->digest();
}

bool Daemon::running() const {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    return running_;
}

void Daemon::start() {
    {
        const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        ensure(!running_, "Daemon: already started");
    }

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ensure(listen_fd_ >= 0, "Daemon: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        const std::string reason = std::strerror(errno);
        close_if_open(listen_fd_);
        throw Error("Daemon: bind(" + options_.socket_path +
                    ") failed: " + reason);
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string reason = std::strerror(errno);
        close_if_open(listen_fd_);
        ::unlink(options_.socket_path.c_str());
        throw Error("Daemon: listen failed: " + reason);
    }
    if (::pipe(wake_pipe_) != 0) {
        close_if_open(listen_fd_);
        ::unlink(options_.socket_path.c_str());
        throw Error("Daemon: pipe failed");
    }

    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        draining_ = false;
        batch_stop_ = false;
    }
    {
        const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        running_ = true;
        shutdown_requested_ = false;
    }
    start_time_ = std::chrono::steady_clock::now();
    batch_thread_ = std::thread([this] { batch_loop(); });
    accept_thread_ = std::thread([this] { accept_loop(); });
    WIMI_OBS_LOG_INFO(kLogComponent, "daemon started",
                      obs::kv("socket", options_.socket_path),
                      obs::kv("model", options_.model_path),
                      obs::kv("digest", model_digest()),
                      obs::kv("max_queue", options_.max_queue),
                      obs::kv("max_batch", options_.max_batch));
}

void Daemon::stop() {
    {
        const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        if (!running_) {
            return;
        }
        running_ = false;
    }

    // 1. Stop accepting connections: wake the poll, join the acceptor.
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    }
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    close_if_open(listen_fd_);
    ::unlink(options_.socket_path.c_str());

    // 2. Refuse new work, then let the batcher answer everything that
    //    was already admitted. Connection readers keep running so the
    //    answers still reach their clients.
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        draining_ = true;
        batch_stop_ = true;
    }
    queue_cv_.notify_all();
    if (batch_thread_.joinable()) {
        batch_thread_.join();
    }

    // 3. Every admitted request is answered; unblock reader threads
    //    waiting for the *next* request (SHUT_RD leaves their pending
    //    response writes intact) and join them.
    {
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        for (const auto& connection : connections_) {
            if (connection->fd >= 0) {
                ::shutdown(connection->fd, SHUT_RD);
            }
        }
    }
    for (;;) {
        std::unique_ptr<Connection> connection;
        {
            const std::lock_guard<std::mutex> lock(connections_mutex_);
            if (connections_.empty()) {
                break;
            }
            connection = std::move(connections_.back());
            connections_.pop_back();
        }
        if (connection->thread.joinable()) {
            connection->thread.join();
        }
    }

    close_if_open(wake_pipe_[0]);
    close_if_open(wake_pipe_[1]);
    WIMI_OBS_LOG_INFO(kLogComponent, "daemon stopped",
                      obs::kv("socket", options_.socket_path));
}

bool Daemon::swap_model(const std::filesystem::path& path,
                        std::string* error) {
    struct SwapFlag {
        std::atomic<bool>& flag;
        explicit SwapFlag(std::atomic<bool>& f) : flag(f) {
            flag.store(true, std::memory_order_relaxed);
        }
        ~SwapFlag() { flag.store(false, std::memory_order_relaxed); }
    } swap_flag(swap_in_progress_);
    try {
        // load_cached revalidates against the artifact's current bytes
        // (size+mtime fast path, digest on mismatch), so a model
        // retrained in place — the common hot-reload shape — loads
        // fresh instead of serving the stale cache entry.
        auto next = InferenceEngine::load_cached(path);
        std::string old_digest;
        {
            const std::lock_guard<std::mutex> lock(engine_mutex_);
            old_digest = engine_->digest();
            engine_ = std::move(next);
        }
        swaps_.fetch_add(1, std::memory_order_relaxed);
        flight_.intern_digest(model_digest());
        WIMI_OBS_COUNT("serve.daemon.swaps", 1);
        WIMI_OBS_LOG_INFO(kLogComponent, "model swapped",
                          obs::kv("path", path.string()),
                          obs::kv("old_digest", old_digest),
                          obs::kv("new_digest", model_digest()));
        return true;
    } catch (const std::exception& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        WIMI_OBS_LOG_WARN(kLogComponent, "model swap failed",
                          obs::kv("path", path.string()),
                          obs::kv("reason", e.what()));
        return false;
    }
}

bool Daemon::shutdown_requested() const {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    return shutdown_requested_;
}

DaemonStats Daemon::stats() const {
    DaemonStats stats;
    stats.connections = connections_total_.load(std::memory_order_relaxed);
    stats.requests = requests_total_.load(std::memory_order_relaxed);
    stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
    stats.rejected_overload =
        rejected_overload_.load(std::memory_order_relaxed);
    stats.rejected_bad_request =
        rejected_bad_request_.load(std::memory_order_relaxed);
    stats.rejected_shutting_down =
        rejected_shutting_down_.load(std::memory_order_relaxed);
    stats.server_errors = server_errors_.load(std::memory_order_relaxed);
    stats.batches = batches_.load(std::memory_order_relaxed);
    stats.max_batch_size = max_batch_size_.load(std::memory_order_relaxed);
    stats.swaps = swaps_.load(std::memory_order_relaxed);
    stats.admitted = admitted_.load(std::memory_order_relaxed);
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.shed = shed_.load(std::memory_order_relaxed);
    stats.failed = failed_.load(std::memory_order_relaxed);
    stats.unknown_kinds = unknown_kinds_.load(std::memory_order_relaxed);
    stats.sampler_retained = sampler_.retained();
    stats.sampler_dropped = sampler_.dropped();
    stats.flight_records = flight_.total_appended();
    return stats;
}

std::string Daemon::stats_json() const {
    const DaemonStats s = stats();
    std::size_t queue_depth = 0;
    bool draining = false;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_depth = queue_.size();
        draining = draining_;
    }
    const bool is_running = running();
    const double uptime_us =
        start_time_ == std::chrono::steady_clock::time_point{}
            ? 0.0
            : us_since(start_time_, std::chrono::steady_clock::now());

    std::string out = "{\"schema\":\"wimi.stats.v1\"";
    out += ",\"uptime_us\":" + obs::json::number(uptime_us);
    out += ",\"model_path\":\"" + obs::json::escape(options_.model_path) +
           "\"";
    out += ",\"model_digest\":\"" + obs::json::escape(model_digest()) +
           "\"";
    append_json_bool(out, "running", is_running);
    append_json_bool(out, "draining", draining);
    append_json_bool(out, "swap_in_progress", swap_in_progress());
    append_json_u64(out, "queue_depth", queue_depth);
    append_json_u64(out, "max_queue", options_.max_queue);
    append_json_u64(out, "max_batch", options_.max_batch);
    out += ",\"counters\":{";
    out += "\"connections\":" + std::to_string(s.connections);
    append_json_u64(out, "requests", s.requests);
    append_json_u64(out, "responses_ok", s.responses_ok);
    append_json_u64(out, "rejected_overload", s.rejected_overload);
    append_json_u64(out, "rejected_bad_request", s.rejected_bad_request);
    append_json_u64(out, "rejected_shutting_down",
                    s.rejected_shutting_down);
    append_json_u64(out, "server_errors", s.server_errors);
    append_json_u64(out, "batches", s.batches);
    append_json_u64(out, "max_batch_size", s.max_batch_size);
    append_json_u64(out, "swaps", s.swaps);
    append_json_u64(out, "admitted", s.admitted);
    append_json_u64(out, "completed", s.completed);
    append_json_u64(out, "shed", s.shed);
    append_json_u64(out, "failed", s.failed);
    append_json_u64(out, "unknown_kinds", s.unknown_kinds);
    append_json_u64(out, "sampler_retained", s.sampler_retained);
    append_json_u64(out, "sampler_dropped", s.sampler_dropped);
    append_json_u64(out, "flight_records", s.flight_records);
    out += "}";
    // NaN (estimator cold) renders as null per json::number.
    out += ",\"sampler_threshold_us\":" +
           obs::json::number(sampler_.threshold());
    out += ",\"metrics\":" + obs::metrics_to_json();
    out += "}";
    return out;
}

std::string Daemon::health_json() const {
    std::size_t queue_depth = 0;
    bool draining = false;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_depth = queue_.size();
        draining = draining_;
    }
    const bool live = running();
    const bool ready = live && !draining;
    const double uptime_us =
        start_time_ == std::chrono::steady_clock::time_point{}
            ? 0.0
            : us_since(start_time_, std::chrono::steady_clock::now());

    std::string out = "{\"schema\":\"wimi.health.v1\"";
    append_json_bool(out, "live", live);
    append_json_bool(out, "ready", ready);
    append_json_bool(out, "draining", draining);
    append_json_bool(out, "swap_in_progress", swap_in_progress());
    append_json_u64(out, "queue_depth", queue_depth);
    append_json_u64(out, "max_queue", options_.max_queue);
    out += ",\"uptime_us\":" + obs::json::number(uptime_us);
    out += ",\"model_digest\":\"" + obs::json::escape(model_digest()) +
           "\"";
    out += "}";
    return out;
}

void Daemon::accept_loop() {
    for (;;) {
        pollfd fds[2];
        fds[0] = {listen_fd_, POLLIN, 0};
        fds[1] = {wake_pipe_[0], POLLIN, 0};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;
        }
        if ((fds[1].revents & POLLIN) != 0) {
            return;  // stop() woke us
        }
        if ((fds[0].revents & POLLIN) == 0) {
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) {
                continue;
            }
            return;
        }
        connections_total_.fetch_add(1, std::memory_order_relaxed);
        WIMI_OBS_COUNT("serve.daemon.connections", 1);
        reap_finished_connections();
        auto connection = std::make_unique<Connection>();
        Connection* raw = connection.get();
        raw->fd = fd;
        {
            const std::lock_guard<std::mutex> lock(connections_mutex_);
            connections_.push_back(std::move(connection));
        }
        raw->thread =
            std::thread([this, fd, raw] { serve_connection(fd, raw); });
    }
}

void Daemon::reap_finished_connections() {
    std::vector<std::unique_ptr<Connection>> finished;
    {
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto it = connections_.begin(); it != connections_.end();) {
            if ((*it)->finished.load(std::memory_order_acquire)) {
                finished.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto& connection : finished) {
        if (connection->thread.joinable()) {
            connection->thread.join();
        }
    }
}

std::shared_ptr<Daemon::Pending> Daemon::try_enqueue(
    wire::Request request, wire::Response* rejection) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    auto pending = std::make_shared<Pending>();
    const std::uint64_t request_id = request.request_id;
    pending->request = std::move(request);
    pending->received = std::chrono::steady_clock::now();
    // Captured under the connection thread's request span, so the
    // batch-side spans and the flight record tie back to the caller's
    // trace (or the daemon-local one opened for untraced requests).
    pending->ctx = obs::current_context();
    pending->arrival_ts_us = obs::trace_now_us();
    bool rejected = false;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (draining_) {
            rejection->status = wire::Status::kShuttingDown;
            rejection->message = "daemon is shutting down";
            rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.rejected.shutting_down", 1);
            rejected = true;
        } else if (queue_.size() >= options_.max_queue) {
            rejection->status = wire::Status::kOverloaded;
            rejection->message =
                "admission queue full (" +
                std::to_string(options_.max_queue) + " waiting)";
            rejected_overload_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.rejected.overload", 1);
            rejected = true;
        } else {
            queue_.push_back(pending);
            WIMI_OBS_GAUGE_SET("serve.daemon.queue_depth",
                               static_cast<double>(queue_.size()));
        }
    }
    if (rejected) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        // Shed requests are always failures for the sampler and always
        // land in the black box — an overload burst is exactly what a
        // postmortem wants to see.
        const bool sampled = sampler_.observe(0.0, /*failed=*/true);
        WIMI_OBS_COUNT("serve.daemon.sampler.retained", 1);
        obs::FlightSample sample;
        sample.trace_id = pending->ctx.trace_id;
        sample.request_id = request_id;
        sample.arrival_ts_us = pending->arrival_ts_us;
        sample.outcome = to_flight_outcome(rejection->status);
        sample.sampled = sampled;
        flight_.append(sample);
        return nullptr;
    }
    queue_cv_.notify_one();
    return pending;
}

wire::Response Daemon::handle_control(const wire::Request& request) {
    wire::Response response;
    response.request_id = request.request_id;
    switch (request.type) {
        case wire::MessageType::kPing: {
            response.status = wire::Status::kOk;
            response.model_digest = model_digest();
            return response;
        }
        case wire::MessageType::kSwapModel: {
            if (!options_.allow_swap) {
                response.status = wire::Status::kBadRequest;
                response.message = "model swap disabled";
                rejected_bad_request_.fetch_add(1,
                                                std::memory_order_relaxed);
                WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
                return response;
            }
            std::string error;
            if (swap_model(request.path, &error)) {
                response.status = wire::Status::kOk;
                response.model_digest = model_digest();
            } else {
                response.status = wire::Status::kBadRequest;
                response.message = "swap failed: " + error;
                rejected_bad_request_.fetch_add(1,
                                                std::memory_order_relaxed);
                WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
            }
            return response;
        }
        case wire::MessageType::kShutdown: {
            if (!options_.allow_shutdown) {
                response.status = wire::Status::kBadRequest;
                response.message = "remote shutdown disabled";
                rejected_bad_request_.fetch_add(1,
                                                std::memory_order_relaxed);
                WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
                return response;
            }
            response.status = wire::Status::kOk;
            response.model_digest = model_digest();
            {
                const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
                shutdown_requested_ = true;
            }
            WIMI_OBS_LOG_INFO(kLogComponent, "shutdown requested");
            return response;
        }
        case wire::MessageType::kStats: {
            response.status = wire::Status::kOk;
            response.model_digest = model_digest();
            response.payload = stats_json();
            return response;
        }
        case wire::MessageType::kHealth: {
            response.status = wire::Status::kOk;
            response.model_digest = model_digest();
            response.payload = health_json();
            return response;
        }
        case wire::MessageType::kDumpFlight: {
            response.status = wire::Status::kOk;
            response.model_digest = model_digest();
            response.payload = flight_.dump_json();
            return response;
        }
        case wire::MessageType::kUnknown: {
            // The CRC proved the stream is in sync; version skew is a
            // per-request error answer, never a dropped connection.
            response.status = wire::Status::kBadRequest;
            response.message = "unknown request kind " +
                               std::to_string(request.raw_type) +
                               " (protocol version skew?)";
            unknown_kinds_.fetch_add(1, std::memory_order_relaxed);
            rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.unknown_kind", 1);
            WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
            WIMI_OBS_LOG_WARN(kLogComponent, "unknown request kind",
                              obs::kv("raw_type", request.raw_type),
                              obs::kv("request_id", request.request_id));
            return response;
        }
        default: {
            response.status = wire::Status::kBadRequest;
            response.message = "unknown request type";
            rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
            return response;
        }
    }
}

void Daemon::serve_connection(int fd, Connection* connection) {
    for (;;) {
        std::vector<std::uint8_t> record;
        wire::Request request;
        bool decoded = false;
        try {
            auto raw = wire::read_record(fd, "WSRQ");
            if (!raw.has_value()) {
                break;  // clean EOF between records
            }
            record = std::move(*raw);
            request = wire::decode_request(record);
            decoded = true;
        } catch (const std::exception& e) {
            // Framing is not trustworthy past a decode error; answer
            // with what the header said (best effort) and hang up.
            wire::Response response;
            response.status = wire::Status::kBadRequest;
            // A record is kept only once read_record accepted its
            // header, so parsing that header again cannot throw.
            response.request_id =
                record.empty()
                    ? 0
                    : wire::parse_header(record, "WSRQ").request_id;
            response.message = e.what();
            rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
            WIMI_OBS_LOG_WARN(kLogComponent, "malformed request",
                              obs::kv("reason", e.what()));
            try {
                wire::write_record(fd, wire::encode_response(response));
            } catch (const std::exception&) {
            }
            break;
        }
        (void)decoded;
        requests_total_.fetch_add(1, std::memory_order_relaxed);
        WIMI_OBS_COUNT("serve.daemon.requests", 1);

        // Run the request under the caller's wire trace context (zeros
        // when untraced: the span below then opens a daemon-local
        // trace). Queue-wait, batch, and engine spans all parent under
        // this span, which itself parents under the caller's
        // client-side span — one trace id across two processes.
        obs::ObsContext caller_ctx;
        caller_ctx.trace_id = request.trace_id;
        caller_ctx.span_id = request.parent_span_id;
        const obs::ScopedObsContext request_scope(caller_ctx);
        WIMI_TRACE_SPAN("serve.daemon.request");
        const std::uint64_t caller_trace = request.trace_id;

        wire::Response response;
        if (request.type == wire::MessageType::kPredictFeatures ||
            request.type == wire::MessageType::kPredictSeries) {
            response.request_id = request.request_id;
            const std::uint64_t request_id = request.request_id;
            std::shared_ptr<Pending> pending =
                try_enqueue(std::move(request), &response);
            if (pending != nullptr) {
                std::unique_lock<std::mutex> lock(pending->mutex);
                pending->cv.wait(lock, [&] { return pending->done; });
                response = pending->response;
                response.request_id = request_id;
            }
        } else {
            response = handle_control(request);
        }
        // Echo the caller's trace id plus the daemon-side request span
        // so the client can stitch the two processes without reading
        // the daemon's trace file. Untraced callers keep v1 responses.
        if (caller_trace != 0) {
            response.trace_id = caller_trace;
            response.span_id = obs::current_context().span_id;
        }
        if (response.status == wire::Status::kOk) {
            responses_ok_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.responses.ok", 1);
        }
        try {
            wire::write_record(fd, wire::encode_response(response));
        } catch (const std::exception& e) {
            WIMI_OBS_LOG_WARN(kLogComponent, "response write failed",
                              obs::kv("reason", e.what()));
            break;
        }
    }
    {
        // stop() reads connection->fd under this mutex to SHUT_RD
        // still-open sockets; closing under the same lock means it can
        // never see (and shut down) a closed — possibly reused — fd.
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        ::close(fd);
        connection->fd = -1;
    }
    connection->finished.store(true, std::memory_order_release);
}

void Daemon::batch_loop() {
    for (;;) {
        std::vector<std::shared_ptr<Pending>> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || batch_stop_;
            });
            if (queue_.empty()) {
                if (batch_stop_) {
                    return;  // drained: every admitted request answered
                }
                continue;
            }
            const std::size_t take =
                std::min(options_.max_batch, queue_.size());
            batch.assign(queue_.begin(),
                         queue_.begin() + static_cast<std::ptrdiff_t>(take));
            queue_.erase(queue_.begin(),
                         queue_.begin() + static_cast<std::ptrdiff_t>(take));
            WIMI_OBS_GAUGE_SET("serve.daemon.queue_depth",
                               static_cast<double>(queue_.size()));
        }
        process_batch(batch);
    }
}

void Daemon::process_batch(
    const std::vector<std::shared_ptr<Pending>>& batch) {
    // One engine snapshot per batch: a concurrent swap_model() cannot
    // mix two models inside a batch, and in-flight batches keep the
    // engine they started with alive through the shared_ptr.
    const std::shared_ptr<const InferenceEngine> engine = current_engine();
    if (options_.batch_stall.count() > 0) {
        std::this_thread::sleep_for(options_.batch_stall);
    }
    const auto start = std::chrono::steady_clock::now();

    batches_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev_max =
        max_batch_size_.load(std::memory_order_relaxed);
    while (prev_max < batch.size() &&
           !max_batch_size_.compare_exchange_weak(
               prev_max, batch.size(), std::memory_order_relaxed)) {
    }
    WIMI_OBS_COUNT("serve.daemon.batches", 1);
    WIMI_OBS_HISTOGRAM("serve.daemon.batch.size",
                       static_cast<double>(batch.size()));

    const std::uint32_t digest_index =
        flight_.intern_digest(engine->digest());

    exec::ExecOptions exec_options;
    exec_options.label = "serve.daemon.batch";
    exec_options.threads = options_.batch_threads;
    // Per-item failures stay per-item: a bad feature width in one
    // request must not fail the rest of its batch, so exceptions are
    // converted to error responses inside the task.
    std::vector<wire::Response> responses =
        exec::parallel_map<wire::Response>(
            batch.size(),
            [&](std::size_t i) {
                const wire::Request& request = batch[i]->request;
                // Reinstall the request's own captured context (the
                // pool wrapper installed the *batcher's*): the engine
                // span must parent under this request's caller, not
                // under whichever request submitted the batch.
                const obs::ScopedObsContext request_ctx(batch[i]->ctx);
                WIMI_TRACE_SPAN("serve.daemon.engine");
                wire::Response response;
                response.request_id = request.request_id;
                try {
                    const Prediction prediction =
                        request.type == wire::MessageType::kPredictFeatures
                            ? engine->predict_features(request.features)
                            : engine->predict(request.baseline,
                                              request.target);
                    response.status = wire::Status::kOk;
                    response.material_id = prediction.material_id;
                    response.material_name = prediction.material_name;
                    response.model_digest = engine->digest();
                } catch (const Error& e) {
                    response.status = wire::Status::kBadRequest;
                    response.message = e.what();
                } catch (const std::exception& e) {
                    response.status = wire::Status::kServerError;
                    response.message = e.what();
                }
                return response;
            },
            exec_options);

    const auto end = std::chrono::steady_clock::now();
    const double wall_us = us_since(start, end);
    WIMI_OBS_HISTOGRAM("serve.daemon.batch_wall_us", wall_us);

    for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& pending = *batch[i];
        wire::Response& response = responses[i];
        const double queue_us = us_since(pending.received, start);
        const double e2e_us = us_since(pending.received, end);
        WIMI_OBS_HISTOGRAM("serve.daemon.queue_us", queue_us);
        WIMI_OBS_HISTOGRAM("serve.daemon.e2e_us", e2e_us);
        const bool ok = response.status == wire::Status::kOk;
        if (ok) {
            response.queue_us = queue_us;
            response.batch_wall_us = wall_us;
            response.batch_size = static_cast<std::uint32_t>(batch.size());
            completed_.fetch_add(1, std::memory_order_relaxed);
        } else if (response.status == wire::Status::kBadRequest) {
            rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
            failed_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.rejected.bad_request", 1);
        } else {
            server_errors_.fetch_add(1, std::memory_order_relaxed);
            failed_.fetch_add(1, std::memory_order_relaxed);
            WIMI_OBS_COUNT("serve.daemon.server_errors", 1);
        }

        // Tail-sampling decision: failures always retained, successes
        // only while warming up or at/above the streaming quantile
        // estimate. The per-request log line below is the "full
        // telemetry" the policy spends; counters/histograms above stay
        // always-on.
        const bool sampled = sampler_.observe(e2e_us, !ok);
        if (sampled) {
            WIMI_OBS_COUNT("serve.daemon.sampler.retained", 1);
        } else {
            WIMI_OBS_COUNT("serve.daemon.sampler.dropped", 1);
        }

        obs::FlightSample sample;
        sample.trace_id = pending.ctx.trace_id;
        sample.request_id = response.request_id;
        sample.arrival_ts_us = pending.arrival_ts_us;
        sample.queue_us = queue_us;
        sample.e2e_us = e2e_us;
        sample.batch_size = static_cast<std::uint32_t>(batch.size());
        sample.outcome = to_flight_outcome(response.status);
        sample.sampled = sampled;
        sample.digest_index = digest_index;
        flight_.append(sample);

        if (sampled) {
            const obs::ScopedObsContext request_ctx(pending.ctx);
            WIMI_OBS_LOG_INFO(
                kLogComponent, "request retained",
                obs::kv("request_id", response.request_id),
                obs::kv("outcome",
                        std::string(wire::status_name(response.status))),
                obs::kv("queue_us", queue_us),
                obs::kv("e2e_us", e2e_us),
                obs::kv("batch_size", batch.size()));
        }

        {
            const std::lock_guard<std::mutex> lock(pending.mutex);
            pending.response = std::move(response);
            pending.done = true;
        }
        pending.cv.notify_one();
    }
    WIMI_OBS_LOG_DEBUG(kLogComponent, "batch served",
                       obs::kv("batch_size", batch.size()),
                       obs::kv("wall_us", wall_us),
                       obs::kv("digest", engine->digest()));
}

}  // namespace wimi::serve
