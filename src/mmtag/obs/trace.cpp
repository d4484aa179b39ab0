#include "mmtag/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "mmtag/io.hpp"

namespace mmtag::obs {

namespace {

struct thread_buffer {
    std::vector<trace_event> ring;
    std::size_t capacity = 0;
    std::size_t head = 0; ///< overwrite cursor once the ring is full
    std::uint64_t session = 0;
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
};

struct tracer_state {
    std::mutex mutex;
    bool running = false;
    std::uint64_t session = 0;
    std::size_t capacity = 1 << 16;
    std::chrono::steady_clock::time_point epoch{};
    std::vector<trace_event> drained;
    std::uint64_t dropped = 0;
    std::uint32_t next_tid = 0;
};

tracer_state& state()
{
    static tracer_state s;
    return s;
}

std::atomic<bool> g_active{false};

thread_local thread_buffer t_buffer;

/// Appends to the calling thread's ring, binding it to the session first.
void append(trace_event event)
{
    auto& s = state();
    if (t_buffer.session != s.session || t_buffer.capacity == 0) {
        const std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.running) return; // raced with stop()
        t_buffer.session = s.session;
        t_buffer.tid = s.next_tid++;
        t_buffer.capacity = s.capacity;
        t_buffer.ring.clear();
        t_buffer.head = 0;
        t_buffer.dropped = 0;
    }
    event.tid = t_buffer.tid;
    if (t_buffer.ring.size() < t_buffer.capacity) {
        t_buffer.ring.push_back(std::move(event));
    } else {
        t_buffer.ring[t_buffer.head] = std::move(event);
        t_buffer.head = (t_buffer.head + 1) % t_buffer.capacity;
        ++t_buffer.dropped;
    }
}

} // namespace

void tracer::start(std::size_t events_per_thread)
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    ++s.session;
    s.running = true;
    s.capacity = events_per_thread == 0 ? 1 : events_per_thread;
    s.epoch = std::chrono::steady_clock::now();
    s.drained.clear();
    s.dropped = 0;
    s.next_tid = 0;
    g_active.store(true, std::memory_order_release);
}

void tracer::stop()
{
    flush_current_thread();
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.running = false;
    g_active.store(false, std::memory_order_release);
}

bool tracer::active()
{
    return g_active.load(std::memory_order_acquire);
}

void tracer::flush_current_thread()
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (t_buffer.session != s.session || t_buffer.ring.empty()) return;
    // Ring order: once full, the oldest surviving event sits at `head`.
    const bool wrapped = t_buffer.ring.size() == t_buffer.capacity && t_buffer.head != 0;
    if (wrapped) {
        for (std::size_t i = t_buffer.head; i < t_buffer.ring.size(); ++i) {
            s.drained.push_back(std::move(t_buffer.ring[i]));
        }
        for (std::size_t i = 0; i < t_buffer.head; ++i) {
            s.drained.push_back(std::move(t_buffer.ring[i]));
        }
    } else {
        for (auto& event : t_buffer.ring) s.drained.push_back(std::move(event));
    }
    s.dropped += t_buffer.dropped;
    t_buffer.ring.clear();
    t_buffer.head = 0;
    t_buffer.dropped = 0;
}

double tracer::now_us()
{
    if (!active()) return 0.0;
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     state().epoch)
        .count();
}

std::vector<trace_event> tracer::events()
{
    auto& s = state();
    std::vector<trace_event> out;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        out = s.drained;
    }
    std::sort(out.begin(), out.end(), [](const trace_event& a, const trace_event& b) {
        if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
        if (a.tid != b.tid) return a.tid < b.tid;
        return a.name < b.name;
    });
    return out;
}

std::map<std::string, std::uint64_t> tracer::event_counts()
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& event : s.drained) ++counts[event.name];
    return counts;
}

std::uint64_t tracer::dropped()
{
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.dropped;
}

std::string tracer::to_json()
{
    const auto sorted = events();
    std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
    bool first = true;
    char buffer[64];
    for (const auto& event : sorted) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": ";
        io::append_json_string(out, event.name);
        out += ", \"cat\": ";
        io::append_json_string(out, event.category);
        out += ", \"ph\": \"";
        out += event.phase;
        out += "\", \"ts\": ";
        std::snprintf(buffer, sizeof buffer, "%.3f", event.ts_us);
        out += buffer;
        if (event.phase == 'X') {
            std::snprintf(buffer, sizeof buffer, ", \"dur\": %.3f", event.dur_us);
            out += buffer;
        }
        std::snprintf(buffer, sizeof buffer, ", \"pid\": 1, \"tid\": %u", event.tid);
        out += buffer;
        if (!event.args.empty()) {
            out += ", \"args\": ";
            out += event.args; // pre-rendered JSON object
        }
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

bool tracer::write(const std::string& path)
{
    return io::write_text_file(path, to_json());
}

void trace_emit(const char* name, const char* category, char phase, double ts_us,
                double dur_us, std::string args)
{
    if (!tracer::active()) return;
    trace_event event;
    event.name = name;
    event.category = category;
    event.phase = phase;
    event.ts_us = ts_us >= 0.0 ? ts_us : tracer::now_us();
    event.dur_us = dur_us;
    event.args = std::move(args);
    append(std::move(event));
}

void trace_instant(const char* name, const char* category, std::string args)
{
    trace_emit(name, category, 'i', -1.0, 0.0, std::move(args));
}

trace_span::trace_span(const char* name, const char* category, std::string args)
    : name_(name), category_(category), args_(std::move(args))
{
    if (tracer::active()) start_us_ = tracer::now_us();
}

trace_span::~trace_span()
{
    if (start_us_ < 0.0 || !tracer::active()) return;
    trace_emit(name_, category_, 'X', start_us_, tracer::now_us() - start_us_,
               std::move(args_));
}

} // namespace mmtag::obs
