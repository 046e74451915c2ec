// CPU steal: time the hypervisor gave to other guests while this VM's
// vCPUs were ready to run. On a shared host it is the largest source of
// run-to-run spread: a slice with a few percent of steal serves a fraction
// of the throughput of a clean one, and its p90 latency jumps to
// milliseconds, because a stolen vCPU stalls whatever it was running
// (often the one reactor).
//
// The benchmark reads it around every sample it takes (a setup, a batch
// slice, a wire slice) and the end-to-end statistic of a run leaves the
// stolen samples out (see steady_median in main.cpp).
#ifndef UHDBENCH_STEAL_HPP
#define UHDBENCH_STEAL_HPP

#include <cstdint>
#include <cstdio>

namespace uhdbench {

/// The aggregate "cpu" line of /proc/stat, in USER_HZ ticks.
struct cpu_ticks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

/// Zeros where /proc/stat is absent or has no steal column (no hypervisor
/// accounting): every sample then counts as clean.
inline cpu_ticks read_cpu_ticks() {
    cpu_ticks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (n != 8) return t;
    t.steal = v[7];
    for (const unsigned long long x : v) t.total += x;
    return t;
}

/// Steal as a share of all CPU time between two readings.
inline double steal_share(const cpu_ticks& a, const cpu_ticks& b) {
    if (b.total <= a.total) return 0.0;
    return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

/// One measured value and the steal share while it was taken.
struct sample {
    double value = 0.0;
    double steal = 0.0;
};

/// Measures the steal share of one sample: construct before, read after.
class steal_window {
public:
    steal_window() : start_(read_cpu_ticks()) {}
    [[nodiscard]] double share() const { return steal_share(start_, read_cpu_ticks()); }

private:
    cpu_ticks start_;
};

} // namespace uhdbench

#endif // UHDBENCH_STEAL_HPP
