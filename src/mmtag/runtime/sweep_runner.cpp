#include "mmtag/runtime/sweep_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace mmtag::runtime {

std::function<void(std::size_t, std::size_t)> progress_printer(std::FILE* stream,
                                                               bool tty)
{
    // Shared state so the returned callback is copyable and thread-safe.
    struct printer_state {
        std::mutex gate;
        std::size_t last_decile = 0;
    };
    auto shared = std::make_shared<printer_state>();
    if (tty) {
        return [stream, shared](std::size_t done, std::size_t total) {
            const std::lock_guard<std::mutex> lock(shared->gate);
            std::fprintf(stream, "\rsweep: %zu/%zu trials", done, total);
            // Terminate the rewritten line so whatever prints next starts
            // on a fresh one.
            if (done == total) std::fprintf(stream, "\n");
            std::fflush(stream);
        };
    }
    // Piped/redirected stderr: '\r' frames would corrupt logs, so print one
    // plain line per completed decile instead.
    return [stream, shared](std::size_t done, std::size_t total) {
        const std::lock_guard<std::mutex> lock(shared->gate);
        const std::size_t decile =
            total == 0 ? 10 : done * 10 / std::max<std::size_t>(total, 1);
        if (decile <= shared->last_decile) return;
        shared->last_decile = decile;
        std::fprintf(stream, "sweep: %zu/%zu trials (%zu%%)\n", done, total,
                     decile * 10);
        std::fflush(stream);
    };
}

std::function<void(std::size_t, std::size_t)> stderr_progress()
{
#ifdef _WIN32
    const bool tty = _isatty(_fileno(stderr)) != 0;
#else
    const bool tty = isatty(fileno(stderr)) != 0;
#endif
    return progress_printer(stderr, tty);
}

} // namespace mmtag::runtime
