// In-memory span recorder for the traced run.
//
// One span per call into a layer (name, start, end, parent span, request
// id). Spans are appended to a vector and written out once, at exit, as
// JSON lines. Every span is recorded from the benchmark's main thread
// (the load generator is that thread too), so the recorder takes no lock.
// With tracing off, begin() returns 0 and end() does nothing.
#ifndef UHDBENCH_TRACE_HPP
#define UHDBENCH_TRACE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace uhdbench {

/// Nanoseconds on the steady clock (the one clock every span and every
/// request timestamp uses).
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< wire request id + 1; 0 = not a request
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class tracer {
public:
    void enable(bool on) { on_ = on; }

    /// Open a span under the innermost open one; returns its id (0 when off).
    std::uint64_t begin(const char* name) {
        if (!on_) return 0;
        const std::uint64_t parent = open_.empty() ? 0 : open_.back();
        spans_.push_back(span{name, spans_.size() + 1, parent, 0, now_ns(), 0});
        open_.push_back(spans_.size());
        return spans_.size();
    }

    /// Close span `id` (the innermost open one).
    void end(std::uint64_t id) {
        if (!on_ || id == 0) return;
        spans_[id - 1].end_ns = now_ns();
        open_.pop_back();
    }

    /// Record a finished span whose times were taken elsewhere (one wire
    /// request: due time to reply), under the innermost open span.
    void record(const char* name, std::uint64_t request, std::int64_t start_ns,
                std::int64_t end_ns) {
        if (!on_) return;
        const std::uint64_t parent = open_.empty() ? 0 : open_.back();
        spans_.push_back(span{name, spans_.size() + 1, parent, request + 1,
                              start_ns, end_ns});
    }

    /// Per-name count, total and self time: a span's duration minus the
    /// part of it its direct children cover (their union — requests of one
    /// slice overlap), for the traced run's summary.
    struct total {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    [[nodiscard]] std::map<std::string, total> totals() const {
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
            spans_.size());
        for (const span& s : spans_) {
            if (s.parent != 0) children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
        }
        std::map<std::string, total> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
            std::sort(kids.begin(), kids.end());
            std::int64_t covered = 0;
            std::int64_t reach = spans_[i].start_ns;
            for (const auto& [b, e] : kids) {
                const std::int64_t from = std::max(b, reach);
                const std::int64_t to = std::min(e, spans_[i].end_ns);
                if (to > from) covered += to - from;
                reach = std::max(reach, e);
            }
            total& t = out[spans_[i].name];
            const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
            ++t.count;
            t.total_ms += static_cast<double>(dur) / 1e6;
            t.self_ms += static_cast<double>(dur - covered) / 1e6;
        }
        return out;
    }

    /// Write every span as one JSON object per line; false on I/O failure.
    [[nodiscard]] bool write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        for (const span& s : spans_) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                         "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                         s.name, static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request),
                         static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns));
        }
        return std::fclose(f) == 0;
    }

private:
    bool on_ = false;
    std::vector<span> spans_;
    std::vector<std::uint64_t> open_;
};

/// RAII span over one call.
class scoped_span {
public:
    scoped_span(tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;
    ~scoped_span() { t_.end(id_); }

private:
    tracer& t_;
    std::uint64_t id_;
};

} // namespace uhdbench

#endif // UHDBENCH_TRACE_HPP
