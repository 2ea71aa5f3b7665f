// Lifecycle tests for the wimi_serve daemon (serve/daemon).
//
// The service-level guarantees, each exercised against a real daemon on
// a real Unix-domain socket with real client threads:
//
//   - concurrent bursts coalesce into multi-request batches;
//   - overload is an explicit, immediate protocol answer — never a
//     hang, never an unbounded queue;
//   - a hot-swap mid-traffic never mixes model digests inside a batch,
//     and each client observes a clean old->new digest transition;
//   - stop() drains: every admitted request is answered before the
//     daemon tears down;
//   - malformed bytes get a bad_request answer and a hangup, and the
//     daemon keeps serving everyone else.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/inference.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"

namespace wimi::serve {
namespace {

/// 3 liquids x 4 repetitions: trains in well under a second, yields a
/// real 3-machine ensemble.
sim::ExperimentConfig tiny_config(std::uint64_t seed) {
    sim::ExperimentConfig config;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kHoney};
    config.repetitions = 4;
    config.seed = seed;
    return config;
}

/// Two persisted models with distinct digests (trained once per process)
/// plus the feature width requests must carry.
struct ServeFixture {
    std::filesystem::path model_a;
    std::filesystem::path model_b;
    std::string digest_a;
    std::string digest_b;
    std::size_t feature_width = 0;

    ServeFixture() {
        // Per-process names: ctest runs each test case in its own
        // process, in parallel under -j, and a shared path lets one
        // process load a model file another is still writing.
        const auto dir = std::filesystem::temp_directory_path();
        const std::string pid = std::to_string(::getpid());
        model_a = dir / ("wimi_serve_test_a." + pid + ".wmdl");
        model_b = dir / ("wimi_serve_test_b." + pid + ".wmdl");
        save_model_file(model_a,
                        sim::train_experiment_model(tiny_config(7)));
        save_model_file(model_b,
                        sim::train_experiment_model(tiny_config(8)));
        digest_a = model_file_digest(model_a);
        digest_b = model_file_digest(model_b);
        feature_width =
            InferenceEngine::load(model_a).model().feature_width();
    }

    ~ServeFixture() {
        std::error_code ignored;
        std::filesystem::remove(model_a, ignored);
        std::filesystem::remove(model_b, ignored);
    }

    ServeFixture(const ServeFixture&) = delete;
    ServeFixture& operator=(const ServeFixture&) = delete;
};

const ServeFixture& fixture() {
    static const ServeFixture f;
    return f;
}

std::string test_socket(const std::string& name) {
    return (std::filesystem::temp_directory_path() /
            ("wimi_serve_test_" + name + ".sock"))
        .string();
}

DaemonOptions base_options(const std::string& socket_name) {
    DaemonOptions options;
    options.socket_path = test_socket(socket_name);
    options.model_path = fixture().model_a.string();
    return options;
}

std::vector<double> valid_features() {
    return std::vector<double>(fixture().feature_width, 0.25);
}

TEST(ServeDaemon, DistinctFixtureDigests) {
    // The hot-swap assertions below are vacuous if both artifacts hash
    // the same; pin the precondition.
    EXPECT_NE(fixture().digest_a, fixture().digest_b);
    EXPECT_FALSE(fixture().digest_a.empty());
}

TEST(ServeDaemon, LifecyclePingStop) {
    Daemon daemon(base_options("lifecycle"));
    EXPECT_FALSE(daemon.running());
    daemon.start();
    EXPECT_TRUE(daemon.running());
    EXPECT_EQ(daemon.model_digest(), fixture().digest_a);

    ServeClient client(daemon.socket_path());
    const ClientResult pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.message;
    EXPECT_EQ(pong.model_digest, fixture().digest_a);

    daemon.stop();
    EXPECT_FALSE(daemon.running());
    EXPECT_FALSE(std::filesystem::exists(daemon.socket_path()));
    const DaemonStats stats = daemon.stats();
    EXPECT_GE(stats.connections, 1u);
    EXPECT_GE(stats.requests, 1u);
    // stop() is idempotent.
    daemon.stop();
}

TEST(ServeDaemon, RejectsUnusableConfiguration) {
    DaemonOptions no_socket = base_options("cfg");
    no_socket.socket_path.clear();
    EXPECT_THROW(Daemon{no_socket}, Error);

    DaemonOptions long_socket = base_options("cfg");
    long_socket.socket_path = "/tmp/" + std::string(200, 'x');
    EXPECT_THROW(Daemon{long_socket}, Error);

    DaemonOptions bad_model = base_options("cfg");
    bad_model.model_path = "/nonexistent/model.wmdl";
    EXPECT_THROW(Daemon{bad_model}, Error);
}

TEST(ServeDaemon, CoalescesConcurrentBurst) {
    DaemonOptions options = base_options("coalesce");
    options.max_batch = 16;
    options.max_queue = 64;
    // Stall each batch long enough that the rest of the burst piles up
    // behind it, forcing a multi-request batch deterministically.
    options.batch_stall = std::chrono::milliseconds(20);
    Daemon daemon(options);
    daemon.start();

    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 2;
    std::vector<ClientResult> results(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(daemon.socket_path());
            const std::vector<double> features = valid_features();
            for (std::size_t r = 0; r < kPerClient; ++r) {
                results[c * kPerClient + r] =
                    client.predict_features(features);
            }
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    daemon.stop();

    std::uint32_t largest_batch_echoed = 0;
    for (const ClientResult& result : results) {
        ASSERT_TRUE(result.ok()) << result.message;
        EXPECT_EQ(result.model_digest, fixture().digest_a);
        largest_batch_echoed =
            std::max(largest_batch_echoed, result.batch_size);
    }
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.responses_ok, kClients * kPerClient);
    EXPECT_GT(stats.max_batch_size, 1u)
        << "burst was served one-by-one; coalescing is broken";
    EXPECT_GT(largest_batch_echoed, 1u);
    // Coalescing means strictly fewer engine calls than requests.
    EXPECT_LT(stats.batches, stats.requests);
}

TEST(ServeDaemon, OverloadIsExplicitRejectionNotHang) {
    DaemonOptions options = base_options("overload");
    options.max_queue = 1;
    options.max_batch = 1;
    options.batch_stall = std::chrono::milliseconds(50);
    Daemon daemon(options);
    daemon.start();

    constexpr std::size_t kClients = 8;
    std::vector<ClientResult> results(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(daemon.socket_path());
            results[c] = client.predict_features(valid_features());
        });
    }
    // Every thread joins: an overloaded daemon answers, it never hangs.
    for (std::thread& thread : clients) {
        thread.join();
    }
    daemon.stop();

    std::size_t ok = 0;
    std::size_t overloaded = 0;
    for (const ClientResult& result : results) {
        if (result.ok()) {
            ++ok;
        } else {
            ASSERT_EQ(result.status, wire::Status::kOverloaded)
                << result.message;
            EXPECT_FALSE(result.message.empty());
            ++overloaded;
        }
    }
    EXPECT_EQ(ok + overloaded, kClients);
    // One request stalls in the batcher, one waits in the queue of 1 —
    // the rest of the simultaneous burst must have been shed.
    EXPECT_GE(overloaded, 1u);
    EXPECT_GE(ok, 1u);
    EXPECT_EQ(daemon.stats().rejected_overload, overloaded);
}

TEST(ServeDaemon, HotSwapNeverMixesDigests) {
    DaemonOptions options = base_options("hotswap");
    options.max_batch = 4;
    options.max_queue = 64;
    options.batch_stall = std::chrono::milliseconds(2);
    Daemon daemon(options);
    daemon.start();

    constexpr std::size_t kClients = 6;
    constexpr std::size_t kPerClient = 8;
    std::vector<std::vector<ClientResult>> per_client(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(daemon.socket_path());
            const std::vector<double> features = valid_features();
            for (std::size_t r = 0; r < kPerClient; ++r) {
                per_client[c].push_back(
                    client.predict_features(features));
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    std::string swap_error;
    ASSERT_TRUE(daemon.swap_model(fixture().model_b, &swap_error))
        << swap_error;
    for (std::thread& thread : clients) {
        thread.join();
    }

    ServeClient prober(daemon.socket_path());
    const ClientResult after = prober.ping();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.model_digest, fixture().digest_b);
    daemon.stop();

    for (std::size_t c = 0; c < kClients; ++c) {
        bool seen_new = false;
        for (const ClientResult& result : per_client[c]) {
            ASSERT_TRUE(result.ok()) << result.message;
            // Every response names exactly one of the two artifacts.
            ASSERT_TRUE(result.model_digest == fixture().digest_a ||
                        result.model_digest == fixture().digest_b)
                << result.model_digest;
            // Batches are processed in admission order by one batcher
            // and a client's requests are sequential, so each client
            // sees a monotone old->new transition — digest A after
            // digest B would mean a batch ran on a stale engine.
            if (result.model_digest == fixture().digest_b) {
                seen_new = true;
            } else {
                EXPECT_FALSE(seen_new)
                    << "client " << c << " saw digest A after digest B";
            }
        }
    }
    EXPECT_EQ(daemon.stats().swaps, 1u);
}

TEST(ServeDaemon, SwapFailureKeepsOldModelServing) {
    Daemon daemon(base_options("swapfail"));
    daemon.start();
    std::string error;
    EXPECT_FALSE(daemon.swap_model("/nonexistent/model.wmdl", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(daemon.model_digest(), fixture().digest_a);

    ServeClient client(daemon.socket_path());
    const ClientResult swap = client.swap_model("/also/missing.wmdl");
    EXPECT_EQ(swap.status, wire::Status::kBadRequest);
    const ClientResult pong = client.ping();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.model_digest, fixture().digest_a);
    daemon.stop();
    EXPECT_EQ(daemon.stats().swaps, 0u);
}

TEST(ServeDaemon, HostileModelSwapKeepsOldModelServing) {
    // Model B with its CALB wavelet levels set to 2^62 and the section
    // CRC restamped: every checksum passes, and the loader must still
    // refuse the file before the daemon serves from it.
    std::ifstream in(fixture().model_b, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const auto u64_at = [&](std::size_t offset) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[offset + i]))
                 << (8 * i);
        }
        return v;
    };
    // Header 28 bytes, then META (id, u64 body_bytes, body, CRC), then
    // CALB, whose body starts with f64 outlier_k_sigma, u8 flag, u64
    // levels.
    const std::size_t calib = 28 + 12 + u64_at(28 + 4) + 4;
    const std::size_t calib_record = 12 + u64_at(calib + 4);
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[calib + 12 + 9 + i] = static_cast<char>(i == 7 ? 0x40 : 0);
    }
    const std::uint32_t crc = crc32(bytes.data() + calib, calib_record);
    for (std::size_t i = 0; i < 4; ++i) {
        bytes[calib + calib_record + i] = static_cast<char>(crc >> (8 * i));
    }
    const auto hostile = std::filesystem::temp_directory_path() /
                         ("wimi_serve_test_hostile." +
                          std::to_string(::getpid()) + ".wmdl");
    std::ofstream(hostile, std::ios::binary) << bytes;

    Daemon daemon(base_options("hostile"));
    daemon.start();
    ServeClient client(daemon.socket_path());
    const ClientResult swap = client.swap_model(hostile.string());
    EXPECT_EQ(swap.status, wire::Status::kBadRequest) << swap.message;
    const ClientResult pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.message;
    EXPECT_EQ(pong.model_digest, fixture().digest_a);
    const ClientResult served = client.predict_features(valid_features());
    ASSERT_TRUE(served.ok()) << served.message;
    EXPECT_EQ(served.model_digest, fixture().digest_a);
    daemon.stop();
    EXPECT_EQ(daemon.stats().swaps, 0u);
    std::filesystem::remove(hostile);
}

TEST(ServeDaemon, StopDrainsAdmittedRequests) {
    DaemonOptions options = base_options("drain");
    options.max_batch = 1;  // serialize: the queue stays occupied
    options.batch_stall = std::chrono::milliseconds(30);
    Daemon daemon(options);
    daemon.start();

    constexpr std::size_t kClients = 4;
    std::vector<ClientResult> results(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(daemon.socket_path());
            results[c] = client.predict_features(valid_features());
        });
    }
    // Let every request get admitted, then stop while most of them are
    // still waiting in the queue (4 x 30ms of batch stall remain).
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    daemon.stop();
    for (std::thread& thread : clients) {
        thread.join();
    }

    for (const ClientResult& result : results) {
        ASSERT_TRUE(result.ok())
            << "admitted request was dropped on shutdown: "
            << result.message;
    }
    EXPECT_EQ(daemon.stats().responses_ok, kClients);
}

TEST(ServeDaemon, ShutdownRequestHonoredAndRefusable) {
    {
        Daemon daemon(base_options("shutdown"));
        daemon.start();
        ServeClient client(daemon.socket_path());
        EXPECT_FALSE(daemon.shutdown_requested());
        const ClientResult result = client.request_shutdown();
        ASSERT_TRUE(result.ok());
        EXPECT_TRUE(daemon.shutdown_requested());
        daemon.stop();
    }
    {
        DaemonOptions options = base_options("noshutdown");
        options.allow_shutdown = false;
        options.allow_swap = false;
        Daemon daemon(options);
        daemon.start();
        ServeClient client(daemon.socket_path());
        EXPECT_EQ(client.request_shutdown().status,
                  wire::Status::kBadRequest);
        EXPECT_FALSE(daemon.shutdown_requested());
        EXPECT_EQ(client.swap_model(fixture().model_b.string()).status,
                  wire::Status::kBadRequest);
        EXPECT_EQ(daemon.model_digest(), fixture().digest_a);
        daemon.stop();
    }
}

TEST(ServeDaemon, BadFeatureWidthRejectedPerRequest) {
    Daemon daemon(base_options("badwidth"));
    daemon.start();
    ServeClient client(daemon.socket_path());
    const std::vector<double> narrow(fixture().feature_width - 1, 0.0);
    const ClientResult bad = client.predict_features(narrow);
    EXPECT_EQ(bad.status, wire::Status::kBadRequest);
    EXPECT_FALSE(bad.message.empty());
    // The same connection keeps working: the failure was the request's.
    const ClientResult good = client.predict_features(valid_features());
    ASSERT_TRUE(good.ok()) << good.message;
    daemon.stop();
    EXPECT_GE(daemon.stats().rejected_bad_request, 1u);
}

TEST(ServeDaemon, CorruptRecordAnsweredThenHangup) {
    Daemon daemon(base_options("corrupt"));
    daemon.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon.socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    wire::Request ping;
    ping.type = wire::MessageType::kPing;
    ping.request_id = 77;
    std::vector<std::uint8_t> record = wire::encode_request(ping);
    record.back() ^= 0xff;  // break the CRC
    wire::write_record(fd, record);

    const auto answer = wire::read_record(fd, "WSRP");
    ASSERT_TRUE(answer.has_value());
    const wire::Response response = wire::decode_response(*answer);
    EXPECT_EQ(response.status, wire::Status::kBadRequest);
    EXPECT_EQ(response.request_id, 77u);  // echoed from the raw header
    // Framing is untrustworthy now; the daemon hangs up on us...
    EXPECT_FALSE(wire::read_record(fd, "WSRP").has_value());
    ::close(fd);

    // ...but keeps serving everyone else.
    ServeClient client(daemon.socket_path());
    EXPECT_TRUE(client.ping().ok());
    daemon.stop();
    EXPECT_GE(daemon.stats().rejected_bad_request, 1u);
}

TEST(ServeDaemon, TracePropagationCrossesTheSocket) {
    Daemon daemon(base_options("traceprop"));
    daemon.start();

    // A caller with an active trace context: the client must stamp it
    // on the wire (v2) and the daemon must echo the same trace id plus
    // its own request span id. Installing the context directly (rather
    // than via WIMI_TRACE_SPAN) keeps this meaningful in obs-off builds
    // too — propagation is wire-level, not macro-level.
    obs::ObsContext caller;
    caller.trace_id = 0x000ABCDEF012345ull;
    caller.span_id = 0x000001111222233ull;
    {
        obs::ScopedObsContext scope(caller);
        ServeClient client(daemon.socket_path());
        const ClientResult traced =
            client.predict_features(valid_features());
        ASSERT_TRUE(traced.ok()) << traced.message;
        EXPECT_EQ(traced.trace_id, caller.trace_id);
        EXPECT_NE(traced.daemon_span_id, 0u);
    }
    // A caller with no trace context sends v1 and gets no echo.
    ServeClient untraced_client(daemon.socket_path());
    const ClientResult untraced =
        untraced_client.predict_features(valid_features());
    ASSERT_TRUE(untraced.ok()) << untraced.message;
    EXPECT_EQ(untraced.trace_id, 0u);
    EXPECT_EQ(untraced.daemon_span_id, 0u);
    daemon.stop();

    // Both requests landed in the flight ring; the traced one carries
    // the caller's trace id.
    bool saw_caller_trace = false;
    for (const obs::FlightRecord& record :
         daemon.flight_recorder().snapshot()) {
        saw_caller_trace |=
            record.sample.trace_id == caller.trace_id;
    }
    EXPECT_TRUE(saw_caller_trace);
}

TEST(ServeDaemon, StatsHealthAndFlightServeOverTheSocket) {
    Daemon daemon(base_options("admin"));
    daemon.start();
    ServeClient client(daemon.socket_path());
    ASSERT_TRUE(client.predict_features(valid_features()).ok());

    const ClientResult stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.message;
    EXPECT_EQ(stats.model_digest, fixture().digest_a);
    const obs::json::Value stats_doc = obs::json::parse(stats.payload);
    EXPECT_EQ(stats_doc.find("schema")->string, "wimi.stats.v1");
    EXPECT_EQ(stats_doc.find("model_digest")->string,
              fixture().digest_a);
    EXPECT_GT(stats_doc.find("uptime_us")->num, 0.0);
    const obs::json::Value* counters = stats_doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(counters->find("admitted")->num, 1.0);
    EXPECT_GE(counters->find("completed")->num, 1.0);
    // The embedded metrics snapshot is a full wimi.metrics.v1 document.
    const obs::json::Value* metrics = stats_doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("schema")->string, "wimi.metrics.v1");

    const ClientResult health = client.health();
    ASSERT_TRUE(health.ok()) << health.message;
    const obs::json::Value health_doc = obs::json::parse(health.payload);
    EXPECT_EQ(health_doc.find("schema")->string, "wimi.health.v1");
    EXPECT_TRUE(health_doc.find("live")->boolean);
    EXPECT_TRUE(health_doc.find("ready")->boolean);
    EXPECT_FALSE(health_doc.find("draining")->boolean);
    EXPECT_EQ(health_doc.find("model_digest")->string,
              fixture().digest_a);

    const ClientResult flight = client.dump_flight();
    ASSERT_TRUE(flight.ok()) << flight.message;
    ASSERT_FALSE(flight.payload.empty());
    // Every line is a wimi.flight.v1 record; the predict is in there.
    std::size_t records = 0;
    std::size_t start = 0;
    while (start < flight.payload.size()) {
        const std::size_t end = flight.payload.find('\n', start);
        const obs::json::Value record =
            obs::json::parse(flight.payload.substr(start, end - start));
        EXPECT_EQ(record.find("schema")->string, "wimi.flight.v1");
        EXPECT_EQ(record.find("digest")->string, fixture().digest_a);
        ++records;
        start = end + 1;
    }
    EXPECT_GE(records, 1u);
    daemon.stop();
}

TEST(ServeDaemon, UnknownKindAnsweredWithoutHangup) {
    Daemon daemon(base_options("unknownkind"));
    daemon.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon.socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    // A well-formed record whose type this daemon has never heard of:
    // rewrite a ping's type and re-sign the CRC, as a newer client
    // speaking a future protocol revision would.
    wire::Request ping;
    ping.type = wire::MessageType::kPing;
    ping.request_id = 88;
    std::vector<std::uint8_t> record = wire::encode_request(ping);
    record[8] = 0x6f;
    const std::uint32_t crc =
        crc32(record.data(), record.size() - wire::kWireTrailerBytes);
    for (std::size_t i = 0; i < 4; ++i) {
        record[record.size() - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    wire::write_record(fd, record);

    const auto answer = wire::read_record(fd, "WSRP");
    ASSERT_TRUE(answer.has_value());
    const wire::Response response = wire::decode_response(*answer);
    EXPECT_EQ(response.status, wire::Status::kBadRequest);
    EXPECT_EQ(response.request_id, 88u);
    EXPECT_NE(response.message.find("unknown request kind"),
              std::string::npos)
        << response.message;

    // Unlike corruption, version skew is not a framing hazard: the SAME
    // connection keeps working.
    wire::Request real_ping;
    real_ping.type = wire::MessageType::kPing;
    real_ping.request_id = 89;
    wire::write_record(fd, wire::encode_request(real_ping));
    const auto pong = wire::read_record(fd, "WSRP");
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(wire::decode_response(*pong).status, wire::Status::kOk);
    ::close(fd);

    daemon.stop();
    EXPECT_EQ(daemon.stats().unknown_kinds, 1u);
}

TEST(ServeDaemon, StatsInvariantHoldsUnderConcurrentLoad) {
    // The per-predict ledger: at quiescence every admitted request is
    // accounted for exactly once — completed (ok), shed (admission
    // rejection), or failed (bad request / engine error). A tight queue
    // plus a per-batch stall forces all three paths concurrently; TSan
    // CI runs this test to vet the counter/ring synchronization.
    DaemonOptions options = base_options("invariant");
    options.max_queue = 2;
    options.max_batch = 2;
    options.batch_stall = std::chrono::milliseconds(3);
    options.flight.capacity = 32;
    Daemon daemon(options);
    daemon.start();

    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 12;
    std::atomic<std::uint64_t> answered{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(daemon.socket_path());
            const std::vector<double> good = valid_features();
            const std::vector<double> narrow(
                fixture().feature_width - 1, 0.0);
            for (std::size_t r = 0; r < kPerClient; ++r) {
                // Every third request is malformed -> failed path.
                const ClientResult result = client.predict_features(
                    (c + r) % 3 == 0 ? narrow : good);
                answered.fetch_add(1);
                ASSERT_TRUE(result.ok() ||
                            result.status == wire::Status::kOverloaded ||
                            result.status == wire::Status::kBadRequest)
                    << result.message;
            }
        });
    }
    for (std::thread& thread : clients) {
        thread.join();
    }
    daemon.stop();

    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(answered.load(), kClients * kPerClient);
    EXPECT_EQ(stats.admitted, kClients * kPerClient);
    EXPECT_EQ(stats.admitted, stats.completed + stats.shed + stats.failed)
        << "admitted=" << stats.admitted
        << " completed=" << stats.completed << " shed=" << stats.shed
        << " failed=" << stats.failed;
    EXPECT_GT(stats.failed, 0u);
    // Sampler saw every terminal decision; flight ring logged them all.
    EXPECT_EQ(stats.sampler_retained + stats.sampler_dropped,
              stats.admitted);
    EXPECT_EQ(stats.flight_records, stats.admitted);
}

TEST(ServeDaemon, PredictSeriesOverTheSocket) {
    Daemon daemon(base_options("series"));
    daemon.start();
    const sim::ExperimentConfig config = tiny_config(7);
    const sim::Scenario scenario(config.scenario);
    const sim::MeasurementPair measurement =
        scenario.capture_measurement(rf::Liquid::kMilk, 5);

    ServeClient client(daemon.socket_path());
    const ClientResult result = client.predict_series(
        measurement.baseline, measurement.target);
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_GE(result.material_id, 0);
    EXPECT_FALSE(result.material_name.empty());
    EXPECT_EQ(result.model_digest, fixture().digest_a);

    // The answer matches an in-process engine over the same artifact —
    // the socket adds transport, not drift.
    const InferenceEngine local = InferenceEngine::load(fixture().model_a);
    const Prediction expected =
        local.predict(measurement.baseline, measurement.target);
    EXPECT_EQ(result.material_id, expected.material_id);
    EXPECT_EQ(result.material_name, expected.material_name);
    daemon.stop();
}

}  // namespace
}  // namespace wimi::serve
