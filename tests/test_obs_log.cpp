// Tests for the structured logger (obs/log): wimi.log.v1 line validity
// for every field type, level threshold + kill-switch gating, trace
// context stamping, and multi-threaded sink integrity.
//
// The Logger is a process singleton, so each test redirects the sink to
// its own temp file and restores stderr + the info threshold afterwards.
#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace wimi::obs {
namespace {

// The WIMI_OBS_LOG_* macros compile to nothing under
// -DWIMI_ENABLE_OBS=OFF, so the line-emission tests have nothing to
// observe in that flavor (same idiom as test_obs_context).
#if defined(WIMI_OBS_DISABLED)
#define WIMI_SKIP_WITHOUT_OBS() \
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)"
#else
#define WIMI_SKIP_WITHOUT_OBS() static_cast<void>(0)
#endif

class ObsLogTest : public ::testing::Test {
protected:
    void SetUp() override {
        WIMI_SKIP_WITHOUT_OBS();
        set_enabled(true);
        path_ = (std::filesystem::temp_directory_path() /
                 ("wimi_log_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".jsonl"))
                    .string();
        std::filesystem::remove(path_);
        Logger::instance().set_path(path_);
        Logger::instance().set_level(LogLevel::kInfo);
    }

    void TearDown() override {
        Logger::instance().set_path("");  // back to stderr
        Logger::instance().set_level(LogLevel::kInfo);
        std::filesystem::remove(path_);
        set_enabled(true);
    }

    /// Flushes and parses every line in the sink file.
    std::vector<json::Value> lines() {
        Logger::instance().flush();
        std::ifstream in(path_);
        std::vector<json::Value> out;
        std::string line;
        while (std::getline(in, line)) {
            out.push_back(json::parse(line));
        }
        return out;
    }

    std::string path_;
};

TEST(ObsLogLevel, NamesAndParsingRoundTrip) {
    for (const LogLevel level :
         {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
          LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
        LogLevel parsed = LogLevel::kOff;
        ASSERT_TRUE(parse_level(level_name(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    LogLevel parsed = LogLevel::kError;
    EXPECT_TRUE(parse_level("WARNING", parsed));  // alias, any case
    EXPECT_EQ(parsed, LogLevel::kWarn);
    EXPECT_TRUE(parse_level("Debug", parsed));
    EXPECT_EQ(parsed, LogLevel::kDebug);
    EXPECT_FALSE(parse_level("verbose", parsed));
    EXPECT_EQ(parsed, LogLevel::kDebug);  // untouched on failure
}

TEST_F(ObsLogTest, LineIsValidJsonWithTypedFields) {
    const std::string long_name(40, 'x');
    WIMI_OBS_LOG_INFO(
        "test.log", "typed fields", kv("str", "value \"quoted\"\n"),
        kv("cstr", "plain"), kv("stdstr", long_name), kv("pos", 42),
        kv("neg", -7), kv("size", std::size_t{123}), kv("pi", 3.5),
        kv("flag", true), kv("off", false));
    const auto docs = lines();
    ASSERT_EQ(docs.size(), 1u);
    const json::Value& doc = docs[0];
    EXPECT_EQ(doc.find("schema")->string, "wimi.log.v1");
    EXPECT_EQ(doc.find("level")->string, "info");
    EXPECT_EQ(doc.find("component")->string, "test.log");
    EXPECT_EQ(doc.find("msg")->string, "typed fields");
    EXPECT_EQ(doc.find("run")->string, Logger::instance().run_id());
    ASSERT_TRUE(doc.find("ts_us")->is_number());
    ASSERT_TRUE(doc.find("unix_ms")->is_number());
    ASSERT_TRUE(doc.find("tid")->is_number());
    const json::Value* fields = doc.find("fields");
    ASSERT_NE(fields, nullptr);
    EXPECT_EQ(fields->find("str")->string, "value \"quoted\"\n");
    EXPECT_EQ(fields->find("cstr")->string, "plain");
    EXPECT_EQ(fields->find("stdstr")->string, long_name);
    EXPECT_EQ(fields->find("pos")->num, 42.0);
    EXPECT_EQ(fields->find("neg")->num, -7.0);
    EXPECT_EQ(fields->find("size")->num, 123.0);
    EXPECT_EQ(fields->find("pi")->num, 3.5);
    EXPECT_TRUE(fields->find("flag")->boolean);
    EXPECT_FALSE(fields->find("off")->boolean);
}

TEST_F(ObsLogTest, FieldlessLineOmitsFieldsMember) {
    WIMI_OBS_LOG_WARN("test.log", "bare");
    const auto docs = lines();
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_EQ(docs[0].find("level")->string, "warn");
    EXPECT_EQ(docs[0].find("fields"), nullptr);
}

TEST_F(ObsLogTest, ThresholdFiltersAndSkipsFieldEvaluation) {
    Logger::instance().set_level(LogLevel::kWarn);
    int evaluations = 0;
    const auto expensive = [&evaluations] {
        ++evaluations;
        return 1;
    };
    WIMI_OBS_LOG_INFO("test.log", "below threshold",
                      kv("cost", expensive()));
    WIMI_OBS_LOG_DEBUG("test.log", "far below", kv("cost", expensive()));
    WIMI_OBS_LOG_ERROR("test.log", "above threshold",
                       kv("cost", expensive()));
    const auto docs = lines();
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_EQ(docs[0].find("level")->string, "error");
    // Suppressed lines never evaluated their field expressions.
    EXPECT_EQ(evaluations, 1);
}

TEST_F(ObsLogTest, KillSwitchSuppressesLines) {
    set_enabled(false);
    EXPECT_FALSE(log_enabled(LogLevel::kError));
    WIMI_OBS_LOG_ERROR("test.log", "invisible");
    set_enabled(true);
    WIMI_OBS_LOG_INFO("test.log", "visible");
    const auto docs = lines();
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_EQ(docs[0].find("msg")->string, "visible");
}

TEST_F(ObsLogTest, LinesCarryTraceContextInsideSpan) {
    trace_reset();
    WIMI_OBS_LOG_INFO("test.log", "outside");
    {
        TraceSpan span("log.span");
        WIMI_OBS_LOG_INFO("test.log", "inside");
        const ObsContext& ctx = current_context();
        const auto docs = lines();
        ASSERT_EQ(docs.size(), 2u);
        // Outside any span: no trace/span members at all.
        EXPECT_EQ(docs[0].find("trace"), nullptr);
        EXPECT_EQ(docs[0].find("span"), nullptr);
        // Inside: both stamped with the live context ids.
        ASSERT_NE(docs[1].find("trace"), nullptr);
        EXPECT_EQ(docs[1].find("trace")->num,
                  static_cast<double>(ctx.trace_id));
        EXPECT_EQ(docs[1].find("span")->num,
                  static_cast<double>(ctx.span_id));
    }
    trace_reset();
}

TEST_F(ObsLogTest, RunIdOverrideAppearsOnLines) {
    const std::string original = Logger::instance().run_id();
    EXPECT_EQ(original.size(), 8u);  // 8 hex chars by default
    Logger::instance().set_run_id("cafe1234");
    WIMI_OBS_LOG_INFO("test.log", "stamped");
    Logger::instance().set_run_id(original);
    const auto docs = lines();
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_EQ(docs[0].find("run")->string, "cafe1234");
}

TEST_F(ObsLogTest, UnopenableSinkThrowsAndKeepsPreviousSink) {
    EXPECT_THROW(
        Logger::instance().set_path("/nonexistent-dir/nested/x.jsonl"),
        wimi::Error);
    WIMI_OBS_LOG_INFO("test.log", "still routed to the old sink");
    EXPECT_EQ(lines().size(), 1u);
}

TEST_F(ObsLogTest, LogCountersTrackWrites) {
    const std::uint64_t before = Logger::instance().lines_written();
    const std::uint64_t counter_before =
        registry().counter("log.lines").value();
    WIMI_OBS_LOG_INFO("test.log", "one");
    WIMI_OBS_LOG_WARN("test.log", "two");
    WIMI_OBS_LOG_DEBUG("test.log", "suppressed");
    EXPECT_EQ(Logger::instance().lines_written(), before + 2);
    EXPECT_EQ(registry().counter("log.lines").value(), counter_before + 2);
}

TEST_F(ObsLogTest, ConcurrentWritersNeverTearLines) {
    constexpr int kThreads = 4;
    constexpr int kLinesPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kLinesPerThread; ++i) {
                WIMI_OBS_LOG_INFO("test.concurrent", "line",
                                  kv("writer", t), kv("i", i));
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    // Every line parses (no interleaved torn writes) and all arrived.
    const auto docs = lines();
    ASSERT_EQ(docs.size(),
              static_cast<std::size_t>(kThreads * kLinesPerThread));
    std::vector<int> per_writer(kThreads, 0);
    for (const json::Value& doc : docs) {
        EXPECT_EQ(doc.find("schema")->string, "wimi.log.v1");
        const json::Value* writer = doc.find("fields")->find("writer");
        ASSERT_NE(writer, nullptr);
        per_writer[static_cast<int>(writer->num)] += 1;
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(per_writer[t], kLinesPerThread);
    }
}

}  // namespace
}  // namespace wimi::obs
