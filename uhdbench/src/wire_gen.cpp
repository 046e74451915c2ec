#include "wire_gen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <span>

#include "uhd/net/wire_format.hpp"

namespace uhdbench {

namespace {

constexpr std::size_t predict_conns = 2;
constexpr std::size_t fit_conn = 2;
// Closed loop: requests in flight on each predict connection, and
// partial_fit requests in flight on the fit connection.
constexpr std::size_t predict_window = 16;
constexpr std::size_t fit_window = 4;
// After the last send, replies still missing this long are timeouts.
constexpr std::int64_t drain_timeout_ns = 10'000'000'000;
constexpr std::size_t read_chunk = 1 << 18;

std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

wire_gen::wire_gen(std::uint16_t port) {
    conns_.resize(predict_conns + 1);
    for (conn& c : conns_) {
        c.fd = uhd::net::connect_tcp("127.0.0.1", port);
        uhd::net::set_nonblocking(c.fd.get());
        c.rbuf.resize(read_chunk * 2);
    }
}

void wire_gen::enqueue(std::size_t c, const request_source& src, req_kind kind,
                       std::int64_t due_ns, std::int64_t now, bool measured) {
    const auto id = static_cast<std::uint32_t>(records_.size());
    request_record rec;
    rec.due_ns = due_ns;
    rec.sent_ns = now;
    rec.kind = kind;
    rec.measured = measured;
    std::vector<std::uint8_t>& out = conns_[c].wbuf;
    const std::size_t base = out.size();
    if (kind == req_kind::predict) {
        rec.item = static_cast<std::uint32_t>(mix(src.seed ^ mix(predicts_++)) %
                                              src.pool);
        const std::vector<std::uint8_t>& frame = (*src.predict_frames)[rec.item];
        out.insert(out.end(), frame.begin(), frame.end());
    } else if (kind == req_kind::fit) {
        rec.item = fit_seq_++;
        src.append_fit(out, rec.item);
    } else {
        std::uint8_t payload[4];
        uhd::net::store_u32(payload, id);
        uhd::net::append_frame(out, static_cast<std::uint8_t>(uhd::net::opcode::ping),
                               id, payload);
    }
    uhd::net::store_u32(out.data() + base + 4, id);
    records_.push_back(rec);
    ++conns_[c].inflight;
}

void wire_gen::flush(conn& c) {
    while (c.wpos < c.wbuf.size() && !c.broken) {
        const ssize_t n = ::send(c.fd.get(), c.wbuf.data() + c.wpos,
                                 c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
        if (n > 0) {
            c.wpos += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            c.broken = true;
        }
    }
    if (c.wpos == c.wbuf.size()) {
        c.wbuf.clear();
        c.wpos = 0;
    }
}

void wire_gen::wait_readable() {
    std::vector<pollfd> fds;
    for (const conn& c : conns_) {
        fds.push_back({c.fd.get(), static_cast<short>(c.wpos < c.wbuf.size()
                                                          ? POLLIN | POLLOUT
                                                          : POLLIN),
                       0});
    }
    ::poll(fds.data(), fds.size(), 1);
}

std::size_t wire_gen::poll(conn& c) {
    std::size_t replies = 0;
    while (!c.broken) {
        if (c.rbuf.size() - c.rlen < read_chunk) c.rbuf.resize(c.rlen + read_chunk);
        const ssize_t n = ::recv(c.fd.get(), c.rbuf.data() + c.rlen,
                                 c.rbuf.size() - c.rlen, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
            c.broken = true;
            break;
        }
        c.rlen += static_cast<std::size_t>(n);
        const std::int64_t now = now_ns();
        std::size_t pos = 0;
        while (c.rlen - pos >= uhd::net::wire_header_size) {
            const uhd::net::frame_header h = uhd::net::decode_header(c.rbuf.data() + pos);
            const std::size_t frame = uhd::net::wire_header_size + h.payload_len;
            if (c.rlen - pos < frame) break;
            const std::span<const std::uint8_t> payload(
                c.rbuf.data() + pos + uhd::net::wire_header_size, h.payload_len);
            pos += frame;
            if (h.request_id >= records_.size() ||
                records_[h.request_id].status != req_status::pending) {
                c.broken = true; // a reply to nothing we sent
                break;
            }
            request_record& rec = records_[h.request_id];
            rec.done_ns = now;
            rec.status = req_status::failed;
            --c.inflight;
            ++replies;
            if (rec.kind == req_kind::predict &&
                h.op == uhd::net::reply_opcode(uhd::net::opcode::predict)) {
                if (const auto r = uhd::net::parse_predict_reply(payload)) {
                    rec.label = r->label;
                    rec.version = r->snapshot_version;
                    rec.status = req_status::ok;
                }
            } else if (rec.kind == req_kind::fit &&
                       h.op == uhd::net::reply_opcode(uhd::net::opcode::partial_fit)) {
                if (const auto r = uhd::net::parse_partial_fit_reply(payload)) {
                    rec.fits = r->updates;
                    rec.version = r->snapshot_version;
                    rec.status = req_status::ok;
                }
            } else if (rec.kind == req_kind::ping &&
                       h.op == uhd::net::reply_opcode(uhd::net::opcode::ping) &&
                       payload.size() == 4 &&
                       uhd::net::load_u32(payload.data()) == h.request_id) {
                rec.status = req_status::ok;
            }
        }
        std::memmove(c.rbuf.data(), c.rbuf.data() + pos, c.rlen - pos);
        c.rlen -= pos;
    }
    return replies;
}

phase_result wire_gen::run(const phase_spec& spec, const request_source& src,
                           tracer& tr) {
    const scoped_span phase_span(tr, spec.name);
    phase_result res;
    res.first_record = records_.size();
    const std::int64_t t0 = now_ns();
    const std::int64_t t_measure = t0 + static_cast<std::int64_t>(spec.warm_s * 1e9);
    const std::int64_t t_end = t_measure + static_cast<std::int64_t>(spec.seconds * 1e9);
    const bool fits = spec.fit_share > 0.0;
    std::uint64_t sent = 0;        // open loop: schedule position
    std::uint64_t phase_predicts = 0;
    std::uint64_t phase_fits = 0;
    std::uint64_t outstanding = 0;

    auto send_predict = [&](std::size_t c, std::int64_t due, std::int64_t now) {
        enqueue(c, src, spec.ping_only ? req_kind::ping : req_kind::predict, due,
                now, due >= t_measure);
        ++phase_predicts;
        ++outstanding;
    };
    auto send_fit = [&](std::int64_t due, std::int64_t now) {
        enqueue(fit_conn, src, req_kind::fit, due, now, due >= t_measure);
        ++phase_fits;
        ++outstanding;
    };

    for (;;) {
        const std::int64_t now = now_ns();
        bool any_broken = false;
        for (const conn& c : conns_) any_broken = any_broken || c.broken;
        if (now < t_end && !any_broken) {
            if (spec.open_loop) {
                // Request i is due at t0 + i / rate; a fit whenever the
                // running fit count steps up (fit_share of all requests).
                for (;;) {
                    const std::int64_t due =
                        t0 + static_cast<std::int64_t>(static_cast<double>(sent) * 1e9 /
                                                       spec.rate);
                    if (due > now || due >= t_end) break;
                    const auto fit_before = static_cast<std::uint64_t>(
                        static_cast<double>(sent) * spec.fit_share);
                    const auto fit_after = static_cast<std::uint64_t>(
                        static_cast<double>(sent + 1) * spec.fit_share);
                    if (fits && fit_after > fit_before) {
                        send_fit(due, now);
                    } else {
                        send_predict(next_predict_conn_, due, now);
                        next_predict_conn_ = (next_predict_conn_ + 1) % predict_conns;
                    }
                    ++sent;
                }
            } else {
                for (std::size_t c = 0; c < predict_conns; ++c) {
                    while (conns_[c].inflight < predict_window) send_predict(c, now, now);
                }
                while (fits && conns_[fit_conn].inflight < fit_window &&
                       static_cast<double>(phase_fits) * (1.0 - spec.fit_share) <
                           static_cast<double>(phase_predicts) * spec.fit_share) {
                    send_fit(now, now);
                }
            }
        } else if (outstanding == 0 || any_broken || now > t_end + drain_timeout_ns) {
            break;
        }
        for (conn& c : conns_) flush(c);
        if (!spec.open_loop) wait_readable(); // closed loop: nothing to send now
        for (conn& c : conns_) outstanding -= poll(c);
    }

    res.end_record = records_.size();
    for (std::size_t i = res.first_record; i < res.end_record; ++i) {
        request_record& rec = records_[i];
        if (rec.status == req_status::pending) rec.status = req_status::failed;
        ++res.attempted;
        if (rec.status != req_status::ok) {
            ++res.failed;
            continue;
        }
        ++res.succeeded;
        if (spec.open_loop) {
            if (!rec.measured) continue;
            res.late_us.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) / 1e3);
            if (rec.kind != req_kind::fit) {
                res.latency_us.push_back(
                    static_cast<double>(rec.done_ns - rec.due_ns) / 1e3);
            }
            tr.record(rec.kind == req_kind::fit ? "gen.partial_fit" : "gen.predict", i,
                      rec.due_ns, rec.done_ns);
        } else if (rec.done_ns >= t_measure && rec.done_ns < t_end) {
            (rec.kind == req_kind::fit ? res.fit_qps : res.predict_qps) +=
                1.0 / spec.seconds;
            tr.record(rec.kind == req_kind::fit ? "gen.partial_fit" : "gen.predict", i,
                      rec.sent_ns, rec.done_ns);
        }
    }
    for (conn& c : conns_) c.inflight = 0;
    return res;
}

} // namespace uhdbench
