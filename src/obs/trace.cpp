#include "obs/trace.hpp"

#include <algorithm>
#include <mutex>

#include "obs/context.hpp"
#include "obs/json.hpp"

namespace wimi::obs {
namespace {

constexpr std::size_t kRingCapacity = 16384;

std::chrono::steady_clock::time_point trace_epoch() {
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

double to_us(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - trace_epoch())
        .count();
}

struct ThreadBuffer;

/// Global rendezvous of all thread buffers. Spans from threads that have
/// exited are preserved in `retired`, the newest kRingCapacity of them:
/// exited threads share one ring's worth of history, so a process that
/// keeps starting short-lived threads (a daemon's connection threads, a
/// client's per-burst senders) holds bounded span memory.
struct Collector {
    std::mutex mutex;
    std::vector<ThreadBuffer*> live;
    std::vector<TraceEvent> retired;
    /// tid -> name of exited threads that were named (live names stay in
    /// their ThreadBuffer until retirement).
    std::vector<std::pair<std::uint32_t, std::string>> retired_names;
    std::uint32_t next_tid = 1;
};

Collector& collector() {
    static Collector* instance = new Collector;  // leaked: outlives
                                                 // thread-exit flushes
    return *instance;
}

struct ThreadBuffer {
    std::mutex mutex;  // uncontended except during snapshot
    std::vector<TraceEvent> ring;
    std::size_t head = 0;
    bool wrapped = false;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::string name;  // set via set_thread_name; read under `mutex`

    ThreadBuffer() {
        ring.reserve(kRingCapacity);
        Collector& c = collector();
        const std::lock_guard<std::mutex> lock(c.mutex);
        tid = c.next_tid++;
        c.live.push_back(this);
    }

    ~ThreadBuffer() {
        Collector& c = collector();
        const std::lock_guard<std::mutex> lock(c.mutex);
        auto events = ordered_events();
        c.retired.insert(c.retired.end(),
                         std::make_move_iterator(events.begin()),
                         std::make_move_iterator(events.end()));
        if (c.retired.size() > kRingCapacity) {
            c.retired.erase(c.retired.begin(),
                            c.retired.end() -
                                static_cast<long>(kRingCapacity));
        }
        if (!name.empty()) {
            c.retired_names.emplace_back(tid, std::move(name));
        }
        c.live.erase(std::remove(c.live.begin(), c.live.end(), this),
                     c.live.end());
    }

    void push(TraceEvent event) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (ring.size() < kRingCapacity) {
            ring.push_back(std::move(event));
        } else {
            ring[head] = std::move(event);
            head = (head + 1) % kRingCapacity;
            wrapped = true;
        }
    }

    /// Ring contents oldest-first. Caller holds no lock; takes `mutex`.
    std::vector<TraceEvent> ordered_events() {
        const std::lock_guard<std::mutex> lock(mutex);
        std::vector<TraceEvent> out;
        out.reserve(ring.size());
        if (wrapped) {
            out.insert(out.end(), ring.begin() + static_cast<long>(head),
                       ring.end());
            out.insert(out.end(), ring.begin(),
                       ring.begin() + static_cast<long>(head));
        } else {
            out = ring;
        }
        return out;
    }

    void clear() {
        const std::lock_guard<std::mutex> lock(mutex);
        ring.clear();
        head = 0;
        wrapped = false;
    }
};

ThreadBuffer& thread_buffer() {
    static thread_local ThreadBuffer buffer;
    return buffer;
}

}  // namespace

TraceSpan::TraceSpan(const char* name) noexcept
    : name_(name), active_(enabled()) {
    if (active_) {
        // Thread the causal context: inherit the enclosing span (possibly
        // propagated from another thread by exec) as parent, open a fresh
        // trace when there is none, and become the innermost span.
        ObsContext& ctx = mutable_current_context();
        parent_span_id_ = ctx.span_id;
        if (ctx.trace_id == 0) {
            ctx.trace_id = next_trace_id();
            owns_trace_ = true;
        }
        trace_id_ = ctx.trace_id;
        span_id_ = next_span_id();
        ctx.span_id = span_id_;
        ++thread_buffer().depth;
        start_ = std::chrono::steady_clock::now();
    }
}

TraceSpan::~TraceSpan() {
    if (!active_) {
        return;
    }
    const auto end = std::chrono::steady_clock::now();
    ThreadBuffer& buffer = thread_buffer();
    --buffer.depth;
    TraceEvent event;
    event.name = name_;
    event.ts_us = to_us(start_);
    event.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    event.tid = buffer.tid;
    event.depth = buffer.depth;
    event.trace_id = trace_id_;
    event.span_id = span_id_;
    event.parent_span_id = parent_span_id_;
    buffer.push(std::move(event));
    // Spans are strictly scoped, so restoring the parent rewinds the
    // context exactly (LIFO per thread).
    ObsContext& ctx = mutable_current_context();
    ctx.span_id = parent_span_id_;
    if (owns_trace_) {
        ctx.trace_id = 0;
    }
}

std::size_t trace_ring_capacity() noexcept {
    return kRingCapacity;
}

double trace_now_us() noexcept {
    return to_us(std::chrono::steady_clock::now());
}

std::uint32_t current_thread_tid() {
    return thread_buffer().tid;
}

std::string current_thread_name() {
    ThreadBuffer& buffer = thread_buffer();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    return buffer.name;
}

void set_thread_name(std::string name) {
    ThreadBuffer& buffer = thread_buffer();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.name = std::move(name);
}

std::vector<std::pair<std::uint32_t, std::string>> trace_thread_names() {
    Collector& c = collector();
    std::vector<std::pair<std::uint32_t, std::string>> names;
    {
        const std::lock_guard<std::mutex> lock(c.mutex);
        names = c.retired_names;
        for (ThreadBuffer* buffer : c.live) {
            const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            if (!buffer->name.empty()) {
                names.emplace_back(buffer->tid, buffer->name);
            }
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<TraceEvent> trace_snapshot() {
    Collector& c = collector();
    std::vector<TraceEvent> all;
    {
        const std::lock_guard<std::mutex> lock(c.mutex);
        all = c.retired;
        for (ThreadBuffer* buffer : c.live) {
            auto events = buffer->ordered_events();
            all.insert(all.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.ts_us < b.ts_us;
                     });
    return all;
}

void trace_reset() {
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.retired.clear();
    for (ThreadBuffer* buffer : c.live) {
        buffer->clear();
    }
}

std::string trace_to_json() {
    const auto events = trace_snapshot();
    std::string out;
    out.reserve(events.size() * 96 + 64);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& [tid, name] : trace_thread_names()) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
        out += std::to_string(tid);
        out += ",\"args\":{\"name\":\"";
        out += json::escape(name);
        out += "\"}}";
    }
    for (const TraceEvent& e : events) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":\"";
        out += json::escape(e.name);
        out += "\",\"cat\":\"wimi\",\"ph\":\"X\",\"ts\":";
        out += json::number(e.ts_us);
        out += ",\"dur\":";
        out += json::number(e.dur_us);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(e.tid);
        out += ",\"args\":{\"depth\":";
        out += std::to_string(e.depth);
        out += ",\"trace\":";
        out += std::to_string(e.trace_id);
        out += ",\"span\":";
        out += std::to_string(e.span_id);
        out += ",\"parent\":";
        out += std::to_string(e.parent_span_id);
        out += "}}";
    }
    out += "]}";
    return out;
}

}  // namespace wimi::obs
