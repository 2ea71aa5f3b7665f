// Tests for trace-context propagation (obs/context + the exec bridge):
// scoped save/restore, span id assignment, and the regression the
// telemetry plane exists to guard — every span recorded inside a pool
// worker must resolve to its logical parent on the submitting thread,
// and worker log lines must carry the originating trace id.
#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace wimi::obs {
namespace {

// The exec bridge (context capture at submission) and the log macros
// compile out under -DWIMI_ENABLE_OBS=OFF, so the cross-thread
// propagation tests have nothing to observe in that flavor.
#if defined(WIMI_OBS_DISABLED)
#define WIMI_SKIP_WITHOUT_OBS() \
    GTEST_SKIP() << "instrumentation compiled out (WIMI_ENABLE_OBS=OFF)"
#else
#define WIMI_SKIP_WITHOUT_OBS() static_cast<void>(0)
#endif

/// Rebuilds the global exec pool with real worker threads for the
/// duration of a test (the container may report one hardware thread, in
/// which case the default pool has no workers and every fan-out would
/// run serially on the caller). Sleeping in the task body yields the
/// core so the workers actually claim tasks.
class ScopedPool {
public:
    explicit ScopedPool(std::size_t threads) {
        exec::set_thread_count(threads);
    }
    ~ScopedPool() { exec::set_thread_count(0); }  // back to default
};

TEST(ObsContext, IdsAreUniqueAndNonZero) {
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t trace = next_trace_id();
        const std::uint64_t span = next_span_id();
        EXPECT_NE(trace, 0u);
        EXPECT_NE(span, 0u);
        EXPECT_TRUE(seen.insert(trace).second);
    }
}

TEST(ObsContext, ScopedContextInstallsAndRestores) {
    ASSERT_TRUE(current_context().empty());
    ObsContext ctx;
    ctx.trace_id = next_trace_id();
    ctx.span_id = next_span_id();
    {
        ScopedObsContext scope(ctx);
        EXPECT_EQ(current_context().trace_id, ctx.trace_id);
        EXPECT_EQ(current_context().span_id, ctx.span_id);
        {
            ObsContext inner;
            inner.trace_id = next_trace_id();
            ScopedObsContext nested(inner);
            EXPECT_EQ(current_context().trace_id, inner.trace_id);
        }
        EXPECT_EQ(current_context().trace_id, ctx.trace_id);
    }
    EXPECT_TRUE(current_context().empty());
}

TEST(ObsContext, RootSpanOpensTraceAndNestedSpansInherit) {
    set_enabled(true);
    trace_reset();
    std::uint64_t root_trace = 0;
    std::uint64_t root_span = 0;
    std::uint64_t child_span = 0;
    {
        TraceSpan root("ctx.root");
        root_trace = current_context().trace_id;
        root_span = current_context().span_id;
        EXPECT_NE(root_trace, 0u);
        EXPECT_NE(root_span, 0u);
        {
            TraceSpan child("ctx.child");
            child_span = current_context().span_id;
            EXPECT_EQ(current_context().trace_id, root_trace);
            EXPECT_NE(child_span, root_span);
        }
        // Child closed: innermost open span is the root again.
        EXPECT_EQ(current_context().span_id, root_span);
    }
    // Root closed: the trace it opened is over.
    EXPECT_TRUE(current_context().empty());

    // The recorded events carry the same ids the live context showed.
    std::map<std::string, TraceEvent> by_name;
    for (const TraceEvent& e : trace_snapshot()) {
        by_name[e.name] = e;
    }
    ASSERT_EQ(by_name.count("ctx.root"), 1u);
    ASSERT_EQ(by_name.count("ctx.child"), 1u);
    EXPECT_EQ(by_name["ctx.root"].trace_id, root_trace);
    EXPECT_EQ(by_name["ctx.root"].span_id, root_span);
    EXPECT_EQ(by_name["ctx.root"].parent_span_id, 0u);
    EXPECT_EQ(by_name["ctx.child"].trace_id, root_trace);
    EXPECT_EQ(by_name["ctx.child"].span_id, child_span);
    EXPECT_EQ(by_name["ctx.child"].parent_span_id, root_span);
    trace_reset();
}

TEST(ObsContext, SequentialRootSpansGetDistinctTraces) {
    set_enabled(true);
    trace_reset();
    {
        TraceSpan a("ctx.first");
        static_cast<void>(a);
    }
    {
        TraceSpan b("ctx.second");
        static_cast<void>(b);
    }
    const auto events = trace_snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].trace_id, events[1].trace_id);
    trace_reset();
}

// The satellite regression: spans opened inside exec pool workers must
// reference a parent span that exists in the exported trace, in the same
// trace, across real worker threads.
TEST(ObsContext, PoolWorkerSpansResolveToSubmittingParent) {
    WIMI_SKIP_WITHOUT_OBS();
    set_enabled(true);
    trace_reset();
    const ScopedPool pool(4);
    constexpr std::size_t kTasks = 48;
    exec::ExecOptions options;
    options.threads = 4;
    options.label = "ctx.fanout";
    std::uint64_t root_trace = 0;
    std::uint64_t root_span = 0;
    {
        TraceSpan root("ctx.submit");
        root_trace = current_context().trace_id;
        root_span = current_context().span_id;
        exec::parallel_for(
            kTasks,
            [](std::size_t) {
                TraceSpan task("ctx.task");
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500));
            },
            options);
    }

    // Validate from the exported JSON — the same document trace-check
    // reads — rather than internal state.
    const json::Value doc = json::parse(trace_to_json());
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<double, double> span_trace;  // span id -> trace id
    std::vector<const json::Value*> tasks;
    for (const json::Value& event : events->array) {
        if (event.find("ph")->string != "X") {
            continue;
        }
        const json::Value* args = event.find("args");
        ASSERT_NE(args, nullptr);
        span_trace[args->find("span")->num] = args->find("trace")->num;
        if (event.find("name")->string == "ctx.task") {
            tasks.push_back(&event);
        }
    }
    ASSERT_EQ(tasks.size(), kTasks);

    std::set<double> task_tids;
    for (const json::Value* task : tasks) {
        const json::Value* args = task->find("args");
        const double parent = args->find("parent")->num;
        // Parent resolves, lives in the same trace, and is the submitting
        // span — not 0, not a worker-local orphan trace.
        ASSERT_NE(parent, 0.0);
        ASSERT_TRUE(span_trace.count(parent));
        EXPECT_EQ(span_trace[parent], args->find("trace")->num);
        EXPECT_EQ(parent, static_cast<double>(root_span));
        EXPECT_EQ(args->find("trace")->num,
                  static_cast<double>(root_trace));
        task_tids.insert(task->find("tid")->num);
    }
    // The fan-out actually crossed threads (caller + at least one pool
    // worker claimed tasks), so the parent links above were resolved
    // across thread boundaries, not trivially on one thread.
    EXPECT_GE(task_tids.size(), 2u) << "fan-out never left the caller";
    trace_reset();
}

TEST(ObsContext, WorkerLogLinesCarryOriginatingTraceId) {
    WIMI_SKIP_WITHOUT_OBS();
    set_enabled(true);
    trace_reset();
    const std::string path =
        (std::filesystem::temp_directory_path() / "wimi_ctx_log.jsonl")
            .string();
    std::filesystem::remove(path);
    Logger::instance().set_path(path);
    Logger::instance().set_level(LogLevel::kDebug);

    const ScopedPool pool(4);
    constexpr std::size_t kTasks = 32;
    exec::ExecOptions options;
    options.threads = 4;
    options.label = "ctx.logging";
    std::uint64_t root_trace = 0;
    {
        TraceSpan root("ctx.log.submit");
        root_trace = current_context().trace_id;
        exec::parallel_for(
            kTasks,
            [](std::size_t i) {
                WIMI_OBS_LOG_DEBUG("test.ctx", "task log", kv("i", i));
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500));
            },
            options);
    }
    Logger::instance().set_path("");
    Logger::instance().set_level(LogLevel::kInfo);

    std::ifstream in(path);
    std::string line;
    std::size_t task_lines = 0;
    std::set<double> tids;
    while (std::getline(in, line)) {
        const json::Value doc = json::parse(line);
        if (doc.find("component")->string != "test.ctx") {
            continue;
        }
        ++task_lines;
        // Every task log line — wherever it ran — carries the trace id
        // opened on the submitting thread.
        ASSERT_NE(doc.find("trace"), nullptr);
        EXPECT_EQ(doc.find("trace")->num,
                  static_cast<double>(root_trace));
        tids.insert(doc.find("tid")->num);
    }
    EXPECT_EQ(task_lines, kTasks);
    EXPECT_GE(tids.size(), 2u) << "no log line came from a pool worker";
    std::filesystem::remove(path);
    trace_reset();
}

}  // namespace
}  // namespace wimi::obs
