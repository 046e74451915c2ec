// uhdbench: the uHD benchmark.
//
//   uhdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// One run sets the whole pipeline up in-process and measures it through
// the library's public API only (uhd_model, uhd_encoder,
// inference_snapshot, inference_engine, wire_server, and the wire
// protocol over loopback TCP):
//
//   setup    encoder + model build, single-pass fit_parallel on 60,000
//            synthetic MNIST-shaped images, engine + server start, first
//            answered ping — repeated;
//   batch    predict_batch over the 10,000 test images, repeated;
//   sat      closed loop over the wire (2 predict connections, fixed
//            window) beside a partial_fit stream on a third connection;
//   low/high open loop at two fixed rates, latency from each due time.
//
// Each end-to-end metric is the median of the samples that CPU steal left
// clean (see steady_median).
//
// Every answer is checked against an oracle (see verify_wire), and any
// failed, refused or timed-out operation fails the run. The last line of
// standard output is the JSON result; lines before it start with '#'.
// With --trace 1 the run is made twice, untraced then traced, and prints
// the per-layer metrics, the tracing overhead of every end-to-end metric,
// and writes its spans to --trace-out.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/net/wire_client.hpp"
#include "uhd/net/wire_format.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"
#include "steal.hpp"
#include "trace.hpp"
#include "wire_gen.hpp"

extern char** environ;

namespace {

using namespace uhdbench;
using uhd::core::uhd_model;
using uhd::hdc::inference_snapshot;

// Paper Table IV scale: MNIST-sized train and test sets.
constexpr std::size_t train_images = 60000;
constexpr std::size_t test_images = 10000;
// Distinct queries the wire phases draw from (pre-encoded once, untimed).
constexpr std::size_t query_pool = 1024;
// Fewest slices of each wire phase in one run.
constexpr std::size_t min_wire_slices = 8;
// Fewest predict_batch calls per round.
constexpr std::size_t min_batch_calls = 2;
// The server republishes its snapshot every this many fits (its default).
constexpr std::size_t publish_every = 64;

/// One workload: the pipeline at one operating point. The dimension
/// decides how much of the run encode takes (the 784 x D threshold bank
/// outgrows the caches between D=1024 and D=8192). A learning workload
/// serves raw pixels, encoded off-loop by the engine's workers, and sends
/// its partial_fit stream in every phase, so encode and writes (trainer
/// mutex, snapshot, publish) sit on the serving path; the other serves
/// pre-encoded int32 frames (encode bypassed) and sends a 1% fit trickle in
/// the sat phase only, so sat.fit_qps exists everywhere while its
/// open-loop latency is that of a static model.
struct workload_spec {
    const char* name;
    std::size_t dim;
    bool learn;
    double fit_share; ///< share of requests that are partial_fit
    double low_rate;  ///< open-loop rate of the low phase, req/s
    double high_rate; ///< open-loop rate of the high phase, req/s
    std::size_t rounds; ///< setups and batch slices per run (see run_pass)
};

const workload_spec workloads[] = {
    {"batch-d8192", 8192, false, 0.01, 1000.0, 2500.0, 3},
    {"serve-raw-learn-d1024", 1024, true, 0.10, 10000.0, 20000.0, 12},
};

struct metric {
    double value = 0.0;
    const char* unit = "";
};
using metric_map = std::map<std::string, metric>;

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples taken with at most this share of CPU steal count as clean.
constexpr double clean_steal = 0.01;
/// Work repeated because of steal takes at most this share of --seconds.
constexpr double extra_share = 0.5;

std::size_t clean_count(const std::vector<sample>& v) {
    return static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [](const sample& x) { return x.steal <= clean_steal; }));
}

/// Clean samples a statistic needs before it leaves every stolen one out.
constexpr std::size_t min_clean_values = 3;

/// The samples an end-to-end statistic is taken over: the clean ones, or,
/// when fewer than min_clean_values are clean, the less-stolen half. Clean
/// slices taken in a run with much steal serve within about 10% of those
/// of a quiet run, while the stolen ones serve a fraction of it.
std::vector<double> steady_values(std::vector<sample> v) {
    std::stable_sort(v.begin(), v.end(),
                     [](const sample& a, const sample& b) { return a.steal < b.steal; });
    std::size_t keep = 0;
    while (keep < v.size() && v[keep].steal <= clean_steal) ++keep;
    if (keep < min_clean_values) keep = std::max(keep, (v.size() + 1) / 2);
    std::vector<double> out;
    for (std::size_t i = 0; i < keep; ++i) out.push_back(v[i].value);
    return out;
}

/// The end-to-end statistic of a run's samples: the median of its steady
/// values. Every sample's steal is measured (steal.hpp); a stolen slice
/// serves a fraction of a clean one's throughput, so leaving the stolen
/// ones out is what lets two runs of the same code agree.
double steady_median(const std::vector<sample>& v) { return median(steady_values(v)); }

/// Distance between the first and third quartile of the steady values, as
/// a share of their median: the run's own spread.
double steady_spread(const std::vector<sample>& v) {
    const std::vector<double> s = steady_values(v);
    const double mid = median(s);
    return mid == 0.0 ? 0.0 : (quantile(s, 0.75) - quantile(s, 0.25)) / mid;
}

/// "value@steal%" for each sample, for the informational lines.
std::string join(const std::vector<sample>& v) {
    std::string out;
    char buf[48];
    for (const sample& x : v) {
        std::snprintf(buf, sizeof buf, "%s%.4g@%.1f", out.empty() ? "" : " ", x.value,
                      x.steal * 100.0);
        out += buf;
    }
    return out;
}

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Everything a run builds once: the data, the query pool and the oracle
/// answers that do not depend on the model's online updates.
struct context {
    const workload_spec* spec = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    uhd::thread_pool* pool = nullptr;
    uhd::data::dataset train;
    uhd::data::dataset test;
    std::vector<std::uint32_t> fit_order; ///< partial_fit stream: train indices
    // Filled by the first pass (identical in every pass: the trained model
    // is checked bit-identical across setups and passes).
    std::unique_ptr<inference_snapshot> trained;
    std::vector<std::size_t> expected_labels; ///< per-image oracle, test set
    std::vector<std::int32_t> pool_encoded;   ///< query_pool x dim
    std::vector<std::vector<std::uint8_t>> predict_frames;
};

/// The serving stack of one setup; members destroy in reverse order
/// (server, then engine, then the model both point into).
struct stack {
    std::unique_ptr<uhd_model> model;
    std::unique_ptr<uhd::serve::inference_engine> engine;
    std::unique_ptr<uhd::net::wire_server> server;
};

struct setup_times {
    double build_s = 0.0;
    double fit_s = 0.0;
    double total_s = 0.0;
};

uhd::serve::engine_options engine_opts(const context& ctx, const uhd_model& model) {
    uhd::serve::engine_options opts; // the engine's default workers
    if (ctx.spec->learn) opts.encoder = &model.encoder();
    return opts;
}

std::unique_ptr<uhd_model> make_model(const context& ctx) {
    uhd::core::uhd_config cfg;
    cfg.dim = ctx.spec->dim;
    return std::make_unique<uhd_model>(cfg, ctx.train.shape(), ctx.train.num_classes(),
                                       uhd::hdc::train_mode::raw_sums,
                                       uhd::hdc::query_mode::binarized);
}

stack set_up(const context& ctx, tracer& tr, setup_times& t) {
    const scoped_span s(tr, "setup");
    const std::int64_t start = now_ns();
    stack st;
    {
        const scoped_span b(tr, "core.build");
        st.model = make_model(ctx);
    }
    t.build_s = seconds_since(start);
    const std::int64_t fit_start = now_ns();
    {
        const scoped_span f(tr, "hdc.fit");
        st.model->fit_parallel(ctx.train, ctx.pool);
    }
    t.fit_s = seconds_since(fit_start);
    {
        const scoped_span e(tr, "serve.start");
        st.engine = std::make_unique<uhd::serve::inference_engine>(
            st.model->snapshot(), engine_opts(ctx, *st.model));
    }
    {
        const scoped_span n(tr, "net.start");
        uhd::net::wire_server_options wopts;
        wopts.reactors = 1;
        wopts.publish_every = publish_every;
        st.server = std::make_unique<uhd::net::wire_server>(*st.engine, wopts,
                                                            st.model.get());
        st.server->start();
    }
    {
        const scoped_span p(tr, "net.ping");
        uhd::net::wire_client client("127.0.0.1", st.server->port());
        client.set_recv_timeout_ms(10000);
        client.ping();
    }
    t.total_s = seconds_since(start);
    return st;
}

/// Untimed oracle state, computed from the first trained model.
void prepare_oracle(context& ctx, const uhd_model& model) {
    const std::size_t dim = ctx.spec->dim;
    ctx.trained = std::make_unique<inference_snapshot>(model.snapshot());
    // Per-image oracle for predict_batch: encode in chunks (the whole test
    // set at D=8192 would take 328 MB), answer from the snapshot.
    constexpr std::size_t chunk = 1024;
    std::vector<std::int32_t> enc(chunk * dim);
    ctx.expected_labels.resize(ctx.test.size());
    for (std::size_t b = 0; b < ctx.test.size(); b += chunk) {
        const std::size_t n = std::min(chunk, ctx.test.size() - b);
        model.encoder().encode_batch(ctx.test.images(b, n), n,
                                     std::span(enc).first(n * dim), ctx.pool);
        for (std::size_t i = 0; i < n; ++i) {
            ctx.expected_labels[b + i] = ctx.trained->predict_encoded(
                std::span<const std::int32_t>(enc).subspan(i * dim, dim));
        }
    }
    ctx.pool_encoded.resize(query_pool * dim);
    model.encoder().encode_batch(ctx.test.images(0, query_pool), query_pool,
                                 ctx.pool_encoded, ctx.pool);
    ctx.predict_frames.resize(query_pool);
    for (std::size_t q = 0; q < query_pool; ++q) {
        if (ctx.spec->learn) {
            uhd::net::append_predict_raw(ctx.predict_frames[q], uhd::net::opcode::predict,
                                         0, ctx.test.images(q, 1));
        } else {
            uhd::net::append_predict_encoded(
                ctx.predict_frames[q], uhd::net::opcode::predict, 0,
                std::span<const std::int32_t>(ctx.pool_encoded).subspan(q * dim, dim));
        }
    }
}

struct phase_counts {
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
};

struct pass_result {
    metric_map e2e;
    std::map<std::string, double> spread; ///< steady_spread per e2e metric
    metric_map layer;
    std::map<std::string, phase_counts> phases;
    std::vector<std::string> notes; ///< informational lines
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void count(const std::string& phase, std::uint64_t attempted_n,
               std::uint64_t failed_n) {
        phase_counts& p = phases[phase];
        p.attempted += attempted_n;
        p.failed += failed_n;
        p.succeeded += attempted_n - failed_n;
        attempted += attempted_n;
        failed += failed_n;
    }
};

/// Replay the partial_fit stream on a copy of the served model and check
/// every wire reply of [first, end): a fit reply must carry its position in
/// the stream and the version the server had published after it; a
/// predict reply must equal the replayed snapshot of the version it
/// carries. Returns the number of wrong answers among the replies that
/// arrived (missing or error replies are already failures); `oracle` and
/// `published` carry the replay across calls.
std::uint64_t verify_wire(const context& ctx, const std::vector<request_record>& recs,
                          std::size_t first, std::size_t end, uhd_model& oracle,
                          std::map<std::uint64_t, inference_snapshot>& published,
                          std::uint64_t& replayed) {
    std::uint64_t failed = 0;
    std::uint64_t live_version = std::prev(published.end())->first;
    std::vector<std::size_t> fits;
    for (std::size_t i = first; i < end; ++i) {
        if (recs[i].kind == req_kind::fit) fits.push_back(i);
    }
    std::sort(fits.begin(), fits.end(), [&](std::size_t a, std::size_t b) {
        return recs[a].item < recs[b].item;
    });
    for (const std::size_t i : fits) {
        const request_record& r = recs[i];
        // The stream is replayed in send order, which is the server's order
        // (one connection, one reactor).
        while (replayed <= r.item) {
            const std::uint32_t idx = ctx.fit_order[replayed % ctx.fit_order.size()];
            oracle.partial_fit(ctx.train.image(idx), ctx.train.label(idx));
            ++replayed;
            if (replayed % publish_every == 1 || publish_every == 1) {
                inference_snapshot snap = oracle.snapshot();
                live_version = snap.version();
                published.emplace(live_version, std::move(snap));
            }
        }
        if (r.status == req_status::ok &&
            (r.fits != static_cast<std::uint64_t>(r.item) + 1 || r.version != live_version)) {
            ++failed;
        }
    }
    const std::size_t dim = ctx.spec->dim;
    for (std::size_t i = first; i < end; ++i) {
        const request_record& r = recs[i];
        if (r.kind != req_kind::predict || r.status != req_status::ok) continue;
        const auto it = published.find(r.version);
        if (it == published.end() ||
            r.label != it->second.predict_encoded(
                           std::span<const std::int32_t>(ctx.pool_encoded)
                               .subspan(static_cast<std::size_t>(r.item) * dim, dim))) {
            ++failed;
        }
    }
    return failed;
}

/// The engine alone, in-process (no `net`): the main thread keeps a window
/// of try_submit / try_submit_raw requests in flight for `seconds`.
/// Returns queries per second; answers are checked against `snap`.
double engine_qps(const context& ctx, const uhd_model& model,
                  const inference_snapshot& snap, double seconds,
                  std::uint64_t& attempted, std::uint64_t& failed) {
    const std::size_t dim = ctx.spec->dim;
    std::vector<std::size_t> expected(query_pool);
    snap.predict_block(ctx.pool_encoded, query_pool, expected);
    uhd::serve::inference_engine engine(snap, engine_opts(ctx, model));
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> wrong{0};
    constexpr std::uint64_t window = 64;
    std::uint64_t submitted = 0;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::int32_t> enc;
    std::vector<std::uint8_t> raw;
    while (now_ns() < deadline) {
        if (submitted - done.load(std::memory_order_acquire) >= window) continue;
        const std::size_t q = submitted % query_pool;
        auto cb = [&done, &wrong, want = expected[q]](std::size_t label, std::uint64_t,
                                                      std::exception_ptr err) {
            if (err || label != want) wrong.fetch_add(1, std::memory_order_relaxed);
            done.fetch_add(1, std::memory_order_release);
        };
        bool ok = false;
        if (ctx.spec->learn) {
            const auto img = ctx.test.image(q);
            raw.assign(img.begin(), img.end());
            ok = engine.try_submit_raw(raw, cb);
        } else {
            const auto row = std::span<const std::int32_t>(ctx.pool_encoded)
                                 .subspan(q * dim, dim);
            enc.assign(row.begin(), row.end());
            ok = engine.try_submit(enc, cb);
        }
        if (ok) ++submitted; // a full queue is backpressure: retry
    }
    while (done.load(std::memory_order_acquire) < submitted) std::this_thread::yield();
    const double elapsed = seconds_since(start);
    engine.stop();
    attempted += submitted;
    failed += wrong.load();
    return static_cast<double>(submitted) / elapsed;
}

/// Time `fn` repeatedly for at least `min_s` and `min_reps`; returns the
/// per-call durations in seconds.
template <typename Fn>
std::vector<double> repeat_timed(double min_s, std::size_t min_reps, Fn&& fn) {
    std::vector<double> out;
    const std::int64_t start = now_ns();
    while (out.size() < min_reps || seconds_since(start) < min_s) {
        const std::int64_t t = now_ns();
        fn();
        out.push_back(seconds_since(t));
    }
    return out;
}

/// Per-layer measurements made by direct calls (traced pass only).
void measure_layers(const context& ctx, stack& st, tracer& tr, pass_result& res) {
    const std::size_t dim = ctx.spec->dim;
    const uhd::core::uhd_encoder& enc = st.model->encoder();
    metric_map& L = res.layer;
    L["core.bank_bytes"] = {static_cast<double>(enc.threshold_bytes()), "B"};
    L["core.bytes_per_img"] = {static_cast<double>(enc.pixels() * dim), "B"};

    // Encode-only work shaped like fit_parallel's: each lane encodes its
    // range in 64-image encode_batch calls into its own scratch.
    auto encode_set = [&](const uhd::data::dataset& set, std::size_t count,
                          uhd::thread_pool* pool) {
        const scoped_span s(tr, "core.encode_batch");
        uhd::thread_pool::maybe_parallel_for(pool, count, [&](std::size_t b, std::size_t e) {
            constexpr std::size_t batch = 64;
            std::vector<std::int32_t> out(batch * dim);
            for (std::size_t i = b; i < e; i += batch) {
                const std::size_t n = std::min(batch, e - i);
                enc.encode_batch(set.images(i, n), n, std::span(out).first(n * dim), nullptr);
            }
        });
    };
    const double test_s = median(repeat_timed(0.5, 1, [&] {
        encode_set(ctx.test, ctx.test.size(), ctx.pool);
    }));
    L["core.encode_img_s"] = {static_cast<double>(ctx.test.size()) / test_s, "img/s"};
    const double one_s = median(repeat_timed(0.5, 1, [&] {
        encode_set(ctx.test, query_pool, nullptr);
    }));
    L["core.encode_1t_img_s"] = {static_cast<double>(query_pool) / one_s, "img/s"};
    // Encode-only against fit_parallel on the same training images, back to
    // back: the host's speed moves by more than the share's complement
    // between the setups (where fit_s is taken) and this point.
    uhd::data::dataset part(ctx.train.shape(), ctx.train.num_classes());
    for (std::size_t i = 0; i < test_images; ++i) {
        part.add(ctx.train.image(i), ctx.train.label(i));
    }
    std::vector<double> part_encode_s;
    std::vector<double> part_fit_s;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t encode_start = now_ns();
        encode_set(part, part.size(), ctx.pool);
        part_encode_s.push_back(seconds_since(encode_start));
        const std::unique_ptr<uhd_model> fresh = make_model(ctx);
        const std::int64_t fit_start = now_ns();
        {
            const scoped_span f(tr, "hdc.fit");
            fresh->fit_parallel(part, ctx.pool);
        }
        part_fit_s.push_back(seconds_since(fit_start));
    }
    L["hdc.fit_encode_share"] = {median(part_encode_s) / median(part_fit_s), "fraction"};

    const inference_snapshot snap = st.model->snapshot();
    std::vector<std::size_t> labels(query_pool);
    const double search_s = median(repeat_timed(0.3, 3, [&] {
        const scoped_span s(tr, "hdc.search");
        snap.predict_block(ctx.pool_encoded, query_pool, labels);
    }));
    L["hdc.search_q_s"] = {static_cast<double>(query_pool) / search_s, "q/s"};

    constexpr std::size_t calls = 200;
    std::vector<double> snap_s;
    std::vector<inference_snapshot> copies;
    for (std::size_t i = 0; i < calls; ++i) {
        const scoped_span s(tr, "hdc.snapshot");
        const std::int64_t t = now_ns();
        copies.push_back(st.model->snapshot());
        snap_s.push_back(seconds_since(t));
    }
    L["hdc.snapshot_us"] = {median(snap_s) * 1e6, "us"};

    uhd_model learner = *st.model;
    std::vector<double> fit_s;
    for (std::size_t i = 0; i < calls; ++i) {
        const std::uint32_t idx = ctx.fit_order[i % ctx.fit_order.size()];
        const scoped_span s(tr, "hdc.partial_fit");
        const std::int64_t t = now_ns();
        learner.partial_fit(ctx.train.image(idx), ctx.train.label(idx));
        fit_s.push_back(seconds_since(t));
    }
    L["hdc.partial_fit_us"] = {median(fit_s) * 1e6, "us"};

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    {
        const scoped_span s(tr, "serve.engine");
        L["serve.qps"] = {engine_qps(ctx, *st.model, snap, 1.0, attempted, failed),
                          "req/s"};
    }
    res.count("engine", attempted, failed);

    uhd::serve::inference_engine engine(snap, engine_opts(ctx, *st.model));
    std::vector<double> publish_s;
    for (inference_snapshot& next : copies) {
        const scoped_span s(tr, "serve.publish");
        const std::int64_t t = now_ns();
        engine.publish(std::move(next));
        publish_s.push_back(seconds_since(t));
    }
    L["serve.publish_us"] = {median(publish_s) * 1e6, "us"};
}

/// Per-phase accumulation over the rounds of a pass.
struct phase_acc {
    std::vector<sample> predict_qps; ///< closed loop, one per slice
    std::vector<sample> fit_qps;
    std::vector<sample> p50_us; ///< open loop, one per slice
    std::vector<sample> p90_us;
    std::vector<double> latency_us; ///< open loop, every measured request
    std::vector<double> late_us;
    std::uint64_t queries = 0; ///< engine and wire counter deltas
    std::uint64_t kernel_calls = 0;
    std::uint64_t raw_queries = 0;
    std::uint64_t encode_calls = 0;
    std::uint64_t loop_cpu_ns = 0;
    double wall_s = 0.0;
};

/// One full measurement of the workload, in rounds: each round sets the
/// pipeline up once more, runs one batch slice, then slices of sat, low and
/// high. Interleaving spreads every metric's samples over the whole run,
/// so a slow or stolen spell of the shared host lands in a few slices of
/// every metric instead of in all of one; each end-to-end metric reports
/// the steady_median of its samples. When steal left fewer than half of any
/// metric's samples clean, more rounds or wire slices follow, for a
/// bounded time. The first round's stack is the one that serves. With
/// `traced`, spans are recorded and the per-layer metrics are gathered too.
pass_result run_pass(context& ctx, tracer& tr, bool traced) {
    tr.enable(traced);
    pass_result res;
    const workload_spec& w = *ctx.spec;
    // Each phase gets a quarter of the measured time. The batch phase runs
    // one slice per round; the wire phases run at least 8 slices each, in
    // interleaved sat/low/high triplets.
    const double slice_s = ctx.seconds / 4.0 / static_cast<double>(w.rounds);
    const std::size_t triplets = (min_wire_slices + w.rounds - 1) / w.rounds;
    const double wire_s = slice_s / static_cast<double>(triplets);
    const double slice_warm_s = std::min(0.1, wire_s / 4.0);

    const std::int64_t pass_start = now_ns();
    std::vector<double> build_s;
    std::vector<sample> fit_s;
    std::vector<sample> setup_s;
    std::vector<sample> batch_rate;
    std::size_t correct_labels = 0;
    stack st;
    std::unique_ptr<uhd_model> oracle;
    std::map<std::uint64_t, inference_snapshot> published;
    std::uint64_t replayed = 0;
    std::unique_ptr<wire_gen> gen;
    std::map<std::string, phase_acc> acc;
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    std::uint64_t throttles = 0;

    request_source src;
    src.pool = query_pool;
    src.seed = ctx.seed;
    src.predict_frames = &ctx.predict_frames;
    src.append_fit = [&ctx](std::vector<std::uint8_t>& out, std::uint32_t seq) {
        const std::uint32_t idx = ctx.fit_order[seq % ctx.fit_order.size()];
        uhd::net::append_partial_fit(out, 0, static_cast<std::uint32_t>(ctx.train.label(idx)),
                                     ctx.train.image(idx));
    };
    const double open_fits = w.learn ? w.fit_share : 0.0;
    const phase_spec phases[] = {
        {"sat", false, false, 0.0, slice_warm_s, wire_s, w.fit_share},
        {"low", true, false, w.low_rate, slice_warm_s, wire_s, open_fits},
        {"high", true, false, w.high_rate, slice_warm_s, wire_s, open_fits},
    };

    auto run_slice = [&](const phase_spec& ph) {
        const uhd::serve::serve_stats e0 = st.engine->stats();
        const uhd::net::wire_stats n0 = st.server->stats();
        const std::int64_t start = now_ns();
        const steal_window steal;
        const phase_result pr = gen->run(ph, src, tr);
        const double stolen = steal.share();
        const double wall = seconds_since(start);
        const uhd::serve::serve_stats e1 = st.engine->stats();
        const uhd::net::wire_stats n1 = st.server->stats();
        const std::uint64_t wrong = verify_wire(ctx, gen->records(), pr.first_record,
                                                pr.end_record, *oracle, published,
                                                replayed);
        res.count(ph.name, pr.attempted, pr.failed + wrong);
        phase_acc& a = acc[ph.name];
        if (ph.open_loop) {
            a.p50_us.push_back({quantile(pr.latency_us, 0.50), stolen});
            a.p90_us.push_back({quantile(pr.latency_us, 0.90), stolen});
            a.latency_us.insert(a.latency_us.end(), pr.latency_us.begin(),
                                pr.latency_us.end());
            a.late_us.insert(a.late_us.end(), pr.late_us.begin(), pr.late_us.end());
        } else {
            a.predict_qps.push_back({pr.predict_qps, stolen});
            a.fit_qps.push_back({pr.fit_qps, stolen});
        }
        a.queries += e1.queries - e0.queries;
        a.kernel_calls += e1.kernel_calls - e0.kernel_calls;
        a.raw_queries += e1.raw_queries - e0.raw_queries;
        a.encode_calls += e1.encode_kernel_calls - e0.encode_kernel_calls;
        a.loop_cpu_ns += n1.loop_cpu_ns - n0.loop_cpu_ns;
        a.wall_s += wall;
        bytes += (n1.bytes_in - n0.bytes_in) + (n1.bytes_out - n0.bytes_out);
        frames += n1.frames_in - n0.frames_in;
        throttles += n1.throttle_events - n0.throttle_events;
    };

    auto run_round = [&](std::size_t round) {
        // --- setup: timed every round; only round 0's stack is kept ------
        setup_times t;
        const steal_window setup_steal;
        stack fresh = set_up(ctx, tr, t);
        const double stolen = setup_steal.share();
        build_s.push_back(t.build_s);
        fit_s.push_back({t.fit_s, stolen});
        setup_s.push_back({t.total_s, stolen});
        if (!ctx.trained) prepare_oracle(ctx, *fresh.model);
        // Single-pass training is deterministic: every setup must train
        // the same model.
        res.count("setup", 1, fresh.model->snapshot() == *ctx.trained ? 0 : 1);
        // --- batch: predict_batch over the test set, on the fresh model
        // (the served one learns online) ---------------------------------
        {
            const scoped_span s(tr, "batch");
            const std::int64_t start = now_ns();
            std::size_t calls = 0;
            do {
                const std::int64_t t0 = now_ns();
                const steal_window steal;
                std::vector<std::size_t> labels;
                {
                    const scoped_span p(tr, "hdc.predict_batch");
                    labels = fresh.model->predict_batch(ctx.test, ctx.pool);
                }
                const double rate =
                    static_cast<double>(ctx.test.size()) / seconds_since(t0);
                batch_rate.push_back({rate, steal.share()});
                std::uint64_t wrong = 0;
                correct_labels = 0;
                for (std::size_t i = 0; i < labels.size(); ++i) {
                    wrong += labels[i] != ctx.expected_labels[i] ? 1 : 0;
                    correct_labels += labels[i] == ctx.test.label(i) ? 1 : 0;
                }
                res.count("batch", ctx.test.size(), wrong);
                ++calls;
            } while (seconds_since(start) < slice_s || calls < min_batch_calls);
        }

        if (round == 0) {
            st = std::move(fresh);
            oracle = std::make_unique<uhd_model>(*st.model);
            published.emplace(ctx.trained->version(), *ctx.trained);
            gen = std::make_unique<wire_gen>(st.server->port());
        } else {
            fresh.server.reset(); // dependency order: server, engine, model
            fresh.engine.reset();
        }

        // --- wire: one slice of each phase -------------------------------
        for (std::size_t k = 0; k < triplets; ++k) {
            for (const phase_spec& ph : phases) run_slice(ph);
        }
    };
    const auto few_clean = [](const std::vector<sample>& v, std::size_t planned) {
        return clean_count(v) * 2 < planned;
    };

    std::size_t round = 0;
    for (; round < w.rounds; ++round) run_round(round);
    // --- repeat what steal spoilt: while fewer than half of a metric's
    // planned samples are clean, run more whole rounds (setup and batch
    // metrics) or sat/low/high triplets (wire metrics), within
    // extra_share x --seconds; nothing is started unless it fits ---------
    const std::size_t setups = setup_s.size();
    const std::size_t batches = batch_rate.size();
    const std::size_t slices = acc["sat"].predict_qps.size();
    const auto wire_short = [&] {
        return few_clean(acc["sat"].predict_qps, slices) ||
               few_clean(acc["low"].p90_us, slices) || few_clean(acc["high"].p90_us, slices);
    };
    const double extra_s = ctx.seconds * extra_share;
    const double round_s = seconds_since(pass_start) / static_cast<double>(w.rounds);
    const double triplet_s = 3.0 * (slice_warm_s + wire_s);
    const std::int64_t extra_start = now_ns();
    while ((few_clean(setup_s, setups) || few_clean(batch_rate, batches)) &&
           seconds_since(extra_start) + round_s <= extra_s) {
        run_round(round++);
    }
    std::size_t extra_triplets = 0;
    while (wire_short() && seconds_since(extra_start) + triplet_s <= extra_s) {
        for (const phase_spec& ph : phases) run_slice(ph);
        ++extra_triplets;
    }
    res.notes.push_back("repeated for steal: " + std::to_string(round - w.rounds) +
                        " rounds, " + std::to_string(extra_triplets) + " wire triplets");
    if (traced) {
        const phase_spec ping{"ping", true, true, w.low_rate, slice_warm_s, 1.0, 0.0};
        const phase_result pr = gen->run(ping, src, tr);
        res.count("ping", pr.attempted, pr.failed);
        res.layer["net.ping_p50_us"] = {quantile(pr.latency_us, 0.5), "us"};
    }

    // Every end-to-end metric but the deterministic accuracy is the
    // steady_median of its samples; the informational lines list each sample
    // as value@steal%.
    const auto put = [&res](const std::string& name, const std::vector<sample>& v,
                            const char* unit) {
        res.e2e[name] = {steady_median(v), unit};
        res.spread[name] = steady_spread(v);
        res.notes.push_back(name + " samples " + join(v));
    };
    std::vector<sample> train_rate;
    for (const sample& f : fit_s) {
        train_rate.push_back({static_cast<double>(train_images) / f.value, f.steal});
    }
    put("setup_s", setup_s, "s");
    put("train.img_s", train_rate, "img/s");
    put("predict.img_s", batch_rate, "img/s");
    res.e2e["accuracy"] = {static_cast<double>(correct_labels) /
                               static_cast<double>(ctx.test.size()),
                           "fraction"};
    res.layer["core.build_s"] = {median(build_s), "s"};
    res.layer["hdc.fit_s"] = {steady_median(fit_s), "s"};

    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    for (const auto& [name, a] : acc) {
        res.layer["serve.batch_mean." + name] = {ratio(a.queries, a.kernel_calls), "req"};
        res.layer["serve.encode_batch_mean." + name] = {
            ratio(a.raw_queries, a.encode_calls), "req"};
        res.layer["net.loop_cpu_util." + name] = {
            static_cast<double>(a.loop_cpu_ns) / (a.wall_s * 1e9), "fraction"};
        if (a.p50_us.empty()) {
            put("sat.qps", a.predict_qps, "req/s");
            put("sat.fit_qps", a.fit_qps, "req/s");
            continue;
        }
        put(name + ".p50_us", a.p50_us, "us");
        put(name + ".p90_us", a.p90_us, "us");
        res.layer["gen.late_p50_us." + name] = {quantile(a.late_us, 0.5), "us"};
        res.layer["gen.late_max_us." + name] = {quantile(a.late_us, 1.0), "us"};
        char line[160];
        const double n = static_cast<double>(a.latency_us.size());
        std::snprintf(line, sizeof line,
                      "%s: p99_us=%.1f (%.0f samples beyond) p99.9_us=%.1f "
                      "(%.0f beyond) of %zu",
                      name.c_str(), quantile(a.latency_us, 0.99), std::floor(n * 0.01),
                      quantile(a.latency_us, 0.999), std::floor(n * 0.001),
                      a.latency_us.size());
        res.notes.push_back(line);
    }
    res.layer["net.bytes_per_req"] = {ratio(bytes, frames), "B"};
    res.layer["net.throttle_events"] = {static_cast<double>(throttles), "count"};

    // --- end state: the served model must equal the replayed oracle -----
    st.server->stop();
    const std::uint64_t publishes = (replayed + publish_every - 1) / publish_every;
    const uhd::serve::serve_stats es = st.engine->stats();
    res.layer["serve.swaps"] = {static_cast<double>(es.snapshot_swaps), "count"};
    const inference_snapshot served = st.model->snapshot();
    const inference_snapshot replay = oracle->snapshot();
    const bool same = served == replay && served.version() == replay.version() &&
                      replayed == gen->fits_sent() && es.snapshot_swaps == publishes;
    res.count("final", 1, same ? 0 : 1);
    if (!same) {
        res.notes.push_back("final model differs from the replayed oracle (swaps " +
                            std::to_string(es.snapshot_swaps) + ", publishes " +
                            std::to_string(publishes) + ")");
    }

    if (traced) measure_layers(ctx, st, tr, res);
    return res;
}

void print_json(const pass_result& res, const metric_map& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    bool first = true;
    for (const auto& [name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), m.value, m.unit);
        first = false;
    }
    std::printf("}}\n");
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "uhdbench: %s\nusage: uhdbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 msg);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string trace_out;
    long long seed = 42;
    double seconds = 16.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoll(value, nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value, nullptr);
        } else if (arg == "--trace") {
            trace = std::atoi(value);
        } else if (arg == "--trace-out") {
            trace_out = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const workload_spec* spec = nullptr;
    for (const workload_spec& w : workloads) {
        if (workload == w.name) spec = &w;
    }
    if (spec == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds >= 1.0 && seconds <= 600.0)) return usage("--seconds out of range");
    // UHD_THREADS, UHD_NET_REACTORS, UHD_BACKEND, UHD_AFFINITY, ... all
    // change what is measured.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "UHD_", 4) == 0) {
            std::fprintf(stderr, "uhdbench: refusing to run with %s set\n", *e);
            return 2;
        }
    }

    // glibc raises its mmap threshold after a large block is freed, so a
    // later threshold bank (800 KB at D=1024) comes from the heap at any
    // 16-byte offset instead of from mmap at 16 bytes past a page. Encode
    // over a 64-byte-aligned bank ran 1.7x as fast as over the mmap'd one,
    // so each setup's speed depended on the frees before it. A fixed
    // threshold (glibc's default value) turns the adjustment off: every
    // bank is mmap'd, as the first one of any process is.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    try {
        // The pool gets nproc - 1 workers: parallel_for adds the caller as
        // a lane, so the batch phases use exactly nproc threads.
        const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
        std::unique_ptr<uhd::thread_pool> pool;
        if (nproc > 1) pool = std::make_unique<uhd::thread_pool>(nproc - 1);
        std::printf("# host nproc=%zu backend=%s cpu=%s pool_lanes=%zu\n", nproc,
                    uhd::kernels::active().name, uhd::cpu().to_string().c_str(),
                    pool ? pool->size() + 1 : 1);
        std::printf("# workload %s seed %lld seconds %g trace %d\n", spec->name, seed,
                    seconds, trace);

        context ctx;
        ctx.spec = spec;
        ctx.seed = static_cast<std::uint64_t>(seed);
        ctx.seconds = seconds;
        ctx.pool = pool.get();
        ctx.train = uhd::data::make_synthetic_digits(train_images, ctx.seed);
        ctx.test = uhd::data::make_synthetic_digits(test_images, ctx.seed + 2);
        ctx.fit_order.resize(train_images);
        std::iota(ctx.fit_order.begin(), ctx.fit_order.end(), 0u);
        std::shuffle(ctx.fit_order.begin(), ctx.fit_order.end(),
                     std::mt19937_64(ctx.seed ^ 0x5EEDF17ull));

        tracer tr;
        pass_result res = run_pass(ctx, tr, false);
        for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());
        for (const auto& [phase, c] : res.phases) {
            if (c.failed != 0) {
                std::printf("# phase %s: %llu of %llu failed\n", phase.c_str(),
                            static_cast<unsigned long long>(c.failed),
                            static_cast<unsigned long long>(c.attempted));
            }
        }
        if (trace == 0) {
            print_json(res, res.e2e);
            return 0;
        }

        pass_result traced = run_pass(ctx, tr, true);
        for (const std::string& n : traced.notes) std::printf("# traced %s\n", n.c_str());
        for (const auto& [name, m] : res.e2e) {
            const double overhead =
                m.value == 0.0 ? 0.0 : traced.e2e[name].value / m.value - 1.0;
            traced.layer["trace_overhead." + name] = {overhead, "fraction"};
            // Spans are recorded from timestamps taken anyway, so the cost
            // of tracing is small; the overhead is a difference of two
            // passes and is bounded below by their spread, printed beside it.
            std::printf("# tracing overhead %-14s untraced %.6g traced %.6g (%+.2f%%, "
                        "untraced slice spread %.2f%%)\n",
                        name.c_str(), m.value, traced.e2e[name].value, overhead * 100.0,
                        res.spread[name] * 100.0);
        }
        for (const auto& [phase, c] : traced.phases) {
            std::printf("# phase %-7s attempted %llu = succeeded %llu + failed %llu\n",
                        phase.c_str(), static_cast<unsigned long long>(c.attempted),
                        static_cast<unsigned long long>(c.succeeded),
                        static_cast<unsigned long long>(c.failed));
            traced.layer[phase + ".attempted"] = {static_cast<double>(c.attempted), "count"};
            traced.layer[phase + ".succeeded"] = {static_cast<double>(c.succeeded), "count"};
            traced.layer[phase + ".failed"] = {static_cast<double>(c.failed), "count"};
        }
        for (const auto& [name, t] : tr.totals()) {
            std::printf("# span %-20s count %8llu total_ms %10.3f self_ms %10.3f\n",
                        name.c_str(), static_cast<unsigned long long>(t.count),
                        t.total_ms, t.self_ms);
        }
        if (!trace_out.empty() && !tr.write(trace_out)) {
            std::fprintf(stderr, "uhdbench: cannot write %s\n", trace_out.c_str());
            return 1;
        }
        // Both passes' operations count toward the verdict.
        traced.attempted += res.attempted;
        traced.failed += res.failed;
        print_json(traced, traced.layer);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "uhdbench: %s\n", e.what());
        return 1;
    }
}
