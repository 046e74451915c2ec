// The benchmark's load generator (the `gen` layer): one thread driving
// three non-blocking TCP connections to a wire_server.
//
// Two predict connections carry the queries, round-robin; a third
// carries the partial_fit stream, so the server applies fits in the
// order they were sent. A phase is either
//  * closed loop: each predict connection keeps a fixed window of
//    requests in flight, and fits are sent whenever they fall below their
//    share of all requests (throughput only — the window sets latency).
//    The fit rate therefore follows the predict rate at that share, unless
//    the fit connection's own window of 4 runs dry; or
//  * open loop: request i is due at t0 + i / rate whatever the server is
//    doing; latency is timed from the due time, and how late the
//    generator sent is recorded beside it.
// Every reply is kept (label, snapshot version, fit count) for the
// oracle, which the caller runs after the phase.
#ifndef UHDBENCH_WIRE_GEN_HPP
#define UHDBENCH_WIRE_GEN_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "uhd/net/socket.hpp"
#include "trace.hpp"

namespace uhdbench {

enum class req_kind : std::uint8_t { predict, fit, ping };
enum class req_status : std::uint8_t { pending, ok, failed };

/// One request sent by the generator; its index is its wire request id.
struct request_record {
    std::int64_t due_ns = 0;  ///< open loop: scheduled send time
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = 0;
    std::uint64_t version = 0; ///< snapshot version in the reply
    std::uint64_t fits = 0;    ///< partial_fit reply: cumulative fits
    std::uint32_t item = 0;    ///< query pool index, or fit sequence number
    std::uint32_t label = 0;   ///< predict reply label
    req_kind kind = req_kind::predict;
    req_status status = req_status::pending;
    bool measured = false; ///< inside the measured window (not warm-up)
};

/// What a phase sends and how.
struct phase_spec {
    const char* name = "";
    bool open_loop = false;
    bool ping_only = false;    ///< open loop of pings (the net floor)
    double rate = 0.0;         ///< open loop: requests per second
    double warm_s = 0.0;       ///< traffic before the measured window
    double seconds = 0.0;      ///< measured window
    double fit_share = 0.0;    ///< share of requests that are partial_fit
};

struct phase_result {
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    double predict_qps = 0.0; ///< closed loop: predict replies in the window / s
    double fit_qps = 0.0;     ///< closed loop: partial_fit replies in the window / s
    std::vector<double> latency_us; ///< open loop, measured, due -> reply
    std::vector<double> late_us;    ///< open loop, measured, due -> send
    std::size_t first_record = 0;   ///< this phase's records: [first, end)
    std::size_t end_record = 0;
};

/// Builds request frames: predict frames per pool query, fit frames per
/// fit sequence number. The request id is patched in by the generator.
struct request_source {
    std::size_t pool = 0;
    std::uint64_t seed = 0;
    const std::vector<std::vector<std::uint8_t>>* predict_frames = nullptr;
    std::function<void(std::vector<std::uint8_t>& out, std::uint32_t fit_seq)>
        append_fit;
};

class wire_gen {
public:
    /// Connect the two predict connections and the fit connection.
    explicit wire_gen(std::uint16_t port);

    /// Run one phase; spans of measured requests go to `tr`.
    phase_result run(const phase_spec& spec, const request_source& src,
                     tracer& tr);

    [[nodiscard]] const std::vector<request_record>& records() const noexcept {
        return records_;
    }
    /// Fits sent over the generator's lifetime.
    [[nodiscard]] std::uint32_t fits_sent() const noexcept { return fit_seq_; }

private:
    struct conn {
        uhd::net::socket_fd fd;
        std::vector<std::uint8_t> rbuf;
        std::size_t rlen = 0;
        std::vector<std::uint8_t> wbuf;
        std::size_t wpos = 0;
        std::size_t inflight = 0;
        bool broken = false;
    };

    void enqueue(std::size_t c, const request_source& src, req_kind kind,
                 std::int64_t due_ns, std::int64_t now, bool measured);
    void flush(conn& c);
    /// Block until a connection is readable (or writable with data
    /// pending), at most 1 ms: the closed loop's idle wait.
    void wait_readable();
    /// Read and complete every reply available on `c`; returns replies.
    std::size_t poll(conn& c);

    std::vector<conn> conns_;
    std::vector<request_record> records_;
    std::uint64_t predicts_ = 0; ///< lifetime predict count (query choice)
    std::uint32_t fit_seq_ = 0;  ///< lifetime fit count (fit stream order)
    std::size_t next_predict_conn_ = 0;
};

} // namespace uhdbench

#endif // UHDBENCH_WIRE_GEN_HPP
