// Event tracing in Chrome trace_event JSON format (chrome://tracing,
// https://ui.perfetto.dev). One session at a time, process-wide:
//
//   tracer::start();
//   ... simulation emits trace_instant()/trace_span()/trace_emit() ...
//   tracer::stop();              // drains, session data stays readable
//   tracer::write("trace.json");
//
// Emission is lock-free on the hot path: each thread appends to its own
// thread-local ring buffer (oldest events overwritten past capacity), and
// the runtime thread pool drains the buffer of every worker at batch end
// (flush_current_thread). When no session is active an emit is one relaxed
// atomic load.
//
// Trace JSON carries wall-clock timestamps and is therefore not
// --jobs-invariant, but event *counts* per name are — the determinism
// regression compares event_counts() across job counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mmtag::obs {

struct trace_event {
    std::string name;
    std::string category;
    char phase = 'i';   ///< 'X' complete, 'i' instant, 'C' counter
    double ts_us = 0.0; ///< microseconds since session start
    double dur_us = 0.0;
    std::uint32_t tid = 0; ///< session-scoped thread id (assigned on first emit)
    std::string args;      ///< pre-rendered JSON object, or empty
};

class tracer {
public:
    /// Starts a session; clears data from the previous one. Per-thread ring
    /// capacity bounds memory (oldest events are dropped past it).
    static void start(std::size_t events_per_thread = 1 << 16);

    /// Drains the calling thread and seals the session. Buffers of threads
    /// that never flushed after their last emission are lost — the runtime
    /// pool flushes every worker at batch end, so in practice stop() after a
    /// sweep sees everything.
    static void stop();

    [[nodiscard]] static bool active();

    /// Moves the calling thread's buffered events into the session sink.
    /// No-op when the buffer is empty or belongs to an older session.
    static void flush_current_thread();

    /// Microseconds since the session epoch (0 when inactive).
    [[nodiscard]] static double now_us();

    /// Drained events of the current/last session, sorted by timestamp.
    [[nodiscard]] static std::vector<trace_event> events();

    /// Event count per name — the scheduling-independent trace digest.
    [[nodiscard]] static std::map<std::string, std::uint64_t> event_counts();

    /// Events dropped to ring overflow in the current/last session.
    [[nodiscard]] static std::uint64_t dropped();

    /// {"traceEvents": [...], ...} document.
    [[nodiscard]] static std::string to_json();

    /// Writes to_json() to `path` (io::write_text_file: warns on stderr
    /// and returns false when the filesystem refused).
    static bool write(const std::string& path);
};

/// Appends one event (ts/tid filled by the tracer unless phase is 'X' with
/// an explicit ts_us). No-op when no session is active.
void trace_emit(const char* name, const char* category, char phase, double ts_us,
                double dur_us, std::string args = {});

/// Zero-duration marker at the current time.
void trace_instant(const char* name, const char* category, std::string args = {});

/// RAII duration event: records a complete ('X') event covering the scope.
class trace_span {
public:
    trace_span(const char* name, const char* category, std::string args = {});
    ~trace_span();

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    const char* name_;
    const char* category_;
    std::string args_;
    double start_us_ = -1.0; ///< < 0 when the tracer was inactive at entry
};

} // namespace mmtag::obs
