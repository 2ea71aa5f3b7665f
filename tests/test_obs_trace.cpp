// Tests for stage tracing (obs/trace): nested span recording, the Chrome
// trace_event export, ring-buffer behavior, multi-thread tids, and the
// runtime kill-switch.
//
// These tests share the process-global trace buffers, so each one starts
// with trace_reset() and the suite is written to tolerate spans recorded
// by other threads only where it creates them.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace wimi::obs {
namespace {

void spin_at_least(std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

std::vector<TraceEvent> events_named(const std::string& name) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : trace_snapshot()) {
        if (e.name == name) {
            out.push_back(e);
        }
    }
    return out;
}

TEST(ObsTrace, NestedSpansRecordDepthAndContainment) {
    set_enabled(true);
    trace_reset();
    {
        TraceSpan outer("outer");
        spin_at_least(std::chrono::microseconds(200));
        {
            TraceSpan inner("inner");
            spin_at_least(std::chrono::microseconds(200));
            {
                TraceSpan leaf("leaf");
                spin_at_least(std::chrono::microseconds(200));
            }
        }
        spin_at_least(std::chrono::microseconds(200));
    }

    const auto outer = events_named("outer");
    const auto inner = events_named("inner");
    const auto leaf = events_named("leaf");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    ASSERT_EQ(leaf.size(), 1u);

    EXPECT_EQ(outer[0].depth, 0u);
    EXPECT_EQ(inner[0].depth, 1u);
    EXPECT_EQ(leaf[0].depth, 2u);

    // Same thread, and each child's [ts, ts+dur] lies inside its parent.
    EXPECT_EQ(outer[0].tid, inner[0].tid);
    EXPECT_EQ(inner[0].tid, leaf[0].tid);
    EXPECT_LE(outer[0].ts_us, inner[0].ts_us);
    EXPECT_GE(outer[0].ts_us + outer[0].dur_us,
              inner[0].ts_us + inner[0].dur_us);
    EXPECT_LE(inner[0].ts_us, leaf[0].ts_us);
    EXPECT_GE(inner[0].ts_us + inner[0].dur_us,
              leaf[0].ts_us + leaf[0].dur_us);

    // Snapshot is sorted by start time: outer first.
    const auto all = trace_snapshot();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].name, "outer");
    EXPECT_EQ(all[1].name, "inner");
    EXPECT_EQ(all[2].name, "leaf");
}

TEST(ObsTrace, ChromeExportPreservesNestedOrdering) {
    set_enabled(true);
    trace_reset();
    // Direct TraceSpan objects (not the macro) so this export test also
    // runs in a -DWIMI_ENABLE_OBS=OFF build, where the macro is a no-op.
    {
        TraceSpan parent("stage.parent");
        spin_at_least(std::chrono::microseconds(200));
        {
            TraceSpan child("stage.child");
            spin_at_least(std::chrono::microseconds(200));
        }
    }

    const json::Value doc = json::parse(trace_to_json());
    ASSERT_TRUE(doc.is_object());
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_EQ(events->array.size(), 2u);

    const json::Value& parent = events->array[0];
    const json::Value& child = events->array[1];
    EXPECT_EQ(parent.find("name")->string, "stage.parent");
    EXPECT_EQ(child.find("name")->string, "stage.child");
    for (const json::Value* e : {&parent, &child}) {
        EXPECT_EQ(e->find("ph")->string, "X");
        EXPECT_EQ(e->find("cat")->string, "wimi");
        EXPECT_DOUBLE_EQ(e->find("pid")->num, 1.0);
        EXPECT_GE(e->find("dur")->num, 0.0);
    }
    // Chrome nests complete events by timestamp containment; the export
    // additionally records logical depth in args.
    const double parent_ts = parent.find("ts")->num;
    const double parent_end = parent_ts + parent.find("dur")->num;
    const double child_ts = child.find("ts")->num;
    const double child_end = child_ts + child.find("dur")->num;
    EXPECT_LE(parent_ts, child_ts);
    EXPECT_GE(parent_end, child_end);
    EXPECT_DOUBLE_EQ(parent.find("args")->find("depth")->num, 0.0);
    EXPECT_DOUBLE_EQ(child.find("args")->find("depth")->num, 1.0);
}

TEST(ObsTrace, RingKeepsNewestSpansWhenFull) {
    set_enabled(true);
    trace_reset();
    const std::size_t capacity = trace_ring_capacity();
    // Overfill this thread's ring; a fresh worker keeps the global state
    // of other tests intact.
    std::thread worker([capacity] {
        for (std::size_t i = 0; i < capacity + 10; ++i) {
            TraceSpan span(i < 10 ? "old" : "new");
            static_cast<void>(span);
        }
    });
    worker.join();

    const auto all = trace_snapshot();
    EXPECT_EQ(all.size(), capacity);
    // The 10 oldest spans were overwritten.
    EXPECT_TRUE(events_named("old").empty());
    trace_reset();
}

TEST(ObsTrace, ExitedThreadsShareOneRingOfHistory) {
    set_enabled(true);
    trace_reset();
    const std::size_t capacity = trace_ring_capacity();
    // Three short-lived threads, each with over half a ring of spans:
    // together they exceed what exited threads may keep, so the first
    // thread's spans go and the last thread's all stay.
    for (const char* name : {"first", "second", "third"}) {
        std::thread worker([capacity, name] {
            for (std::size_t i = 0; i < capacity / 2 + 1; ++i) {
                TraceSpan span(name);
                static_cast<void>(span);
            }
        });
        worker.join();
    }
    EXPECT_EQ(trace_snapshot().size(), capacity);
    EXPECT_TRUE(events_named("first").empty());
    EXPECT_EQ(events_named("third").size(), capacity / 2 + 1);
    trace_reset();
}

TEST(ObsTrace, ThreadsGetDistinctTids) {
    set_enabled(true);
    trace_reset();
    auto record_one = [] {
        TraceSpan span("threaded");
        spin_at_least(std::chrono::microseconds(50));
    };
    std::thread a(record_one);
    std::thread b(record_one);
    a.join();
    b.join();

    const auto events = events_named("threaded");
    ASSERT_EQ(events.size(), 2u);  // retired buffers survive thread exit
    std::set<std::uint32_t> tids;
    for (const TraceEvent& e : events) {
        tids.insert(e.tid);
    }
    EXPECT_EQ(tids.size(), 2u);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
    trace_reset();
    set_enabled(false);
    {
        WIMI_TRACE_SPAN("invisible");  // no-op either way when disabled
        TraceSpan direct("also.invisible");
        static_cast<void>(direct);
    }
    set_enabled(true);
    EXPECT_TRUE(trace_snapshot().empty());
}

TEST(ObsTrace, ScopedTimerRecordsMicroseconds) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("timer.us");
    {
        ScopedTimer timer(h);
        spin_at_least(std::chrono::microseconds(300));
    }
    const HistogramSummary s = h.summary();
    ASSERT_EQ(s.count, 1u);
    EXPECT_GE(s.min, 300.0);   // at least the spin duration
    EXPECT_LT(s.min, 1e6);     // sanity: well under a second
}

TEST(ObsTrace, ResetClearsLiveAndRetired) {
    set_enabled(true);
    trace_reset();
    {
        TraceSpan live("on.main");
        static_cast<void>(live);
    }
    std::thread t([] {
        TraceSpan retired("on.worker");
        static_cast<void>(retired);
    });
    t.join();
    EXPECT_EQ(trace_snapshot().size(), 2u);
    trace_reset();
    EXPECT_TRUE(trace_snapshot().empty());
}

}  // namespace
}  // namespace wimi::obs
