// Kernel micro-benchmarks (google-benchmark): the per-operation costs
// behind Table I's runtime rows — comparator styles, encode kernels
// (scalar oracle vs word-parallel), sequence generation, and similarity
// search.
//
// The custom main() additionally runs three direct throughput measurements
// and writes machine-readable results (schemas in bench/README.md):
//  * encode on 28x28 synthetic MNIST-shaped images at D=1024 (scalar vs
//    word-parallel vs batched vs pool-parallel vs rematerializing), plus a
//    stored-vs-rematerialize footprint + throughput D-sweep past LLC that
//    also times single-thread blocked encode_batch at 1 and 64 images per
//    call, with both bit-identities and >= 100x threshold-state reduction
//    as hard gates
//    -> BENCH_encode.json (override the path with UHD_BENCH_JSON, workload
//    with UHD_BENCH_IMAGES);
//  * training on the same MNIST-shaped workload (seed sequential loop vs
//    the current sequential fit vs the mini-batch parallel engine at
//    several pool sizes, determinism-gated), plus single-thread
//    class-histogram training at D=8192 against per-image encode + bundle
//    (bit-identity gated) -> BENCH_train.json (override with
//    UHD_BENCH_TRAIN_JSON, workload with UHD_BENCH_TRAIN_IMAGES);
//  * inference over pre-encoded queries at D=8192 / 10 classes (seed
//    per-class-cosine path vs the packed associative-memory engine, both
//    query modes, plus the calibrated dynamic-dimension cascade with its
//    agreement/scan gates, plus the multi-query blocked path over a
//    many-class memory at block sizes 1/4/8/16/32, identity-checked and
//    speedup-gated) -> BENCH_inference.json (override with
//    UHD_BENCH_INFER_JSON, workload with UHD_BENCH_QUERIES /
//    UHD_BENCH_BLOCK_CLASSES / UHD_BENCH_BLOCK_QUERIES).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "uhd/bitstream/unary.hpp"
#include "uhd/common/config.hpp"
#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/common/stopwatch.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/binarizer.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/hypervector.hpp"
#include "uhd/hdc/similarity.hpp"
#include "uhd/lowdisc/lfsr.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd;

const data::dataset& digits() {
    static const data::dataset ds = data::make_synthetic_digits(16, 5);
    return ds;
}

void BM_UnaryComparatorGateLevel(benchmark::State& state) {
    const auto a = bs::unary_encode(7, 16);
    const auto b = bs::unary_encode(11, 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bs::unary_compare_geq(a, b));
    }
}
BENCHMARK(BM_UnaryComparatorGateLevel);

void BM_QuantizedIntegerCompare(benchmark::State& state) {
    // The fast-path equivalent of the unary comparator (one byte compare).
    volatile std::uint8_t a = 7;
    volatile std::uint8_t b = 11;
    for (auto _ : state) {
        benchmark::DoNotOptimize(a >= b);
    }
}
BENCHMARK(BM_QuantizedIntegerCompare);

void BM_GeqKernelReference(benchmark::State& state) {
    // The pinned byte-at-a-time oracle: the baseline every speedup claim
    // is measured against.
    const auto dim = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> thresholds(dim);
    for (std::size_t d = 0; d < dim; ++d) thresholds[d] = d % 16;
    std::vector<std::uint16_t> tile(dim, 0);
    for (auto _ : state) {
        simd::geq_accumulate_reference(7, thresholds.data(), dim, tile.data());
        benchmark::DoNotOptimize(tile.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_GeqKernelReference)->Arg(1024)->Arg(8192);

/// 784 pixels x dim thresholds in the panel layout, and `images`
/// quantized images, for the panel-kernel benchmarks.
struct panel_workload {
    static constexpr std::size_t pixels = 784;
    std::vector<std::uint8_t> panels;
    std::vector<std::uint8_t> q;
    std::vector<std::int32_t> out;

    panel_workload(std::size_t dim, std::size_t images)
        : panels(pixels * dim), q(images * pixels), out(images * dim, 0) {
        for (std::size_t i = 0; i < panels.size(); ++i) {
            panels[i] = static_cast<std::uint8_t>((i * 2654435761u) % 16);
        }
        for (std::size_t i = 0; i < q.size(); ++i) q[i] = (i * 7) % 16;
    }
};

void BM_GeqBlockKernel(benchmark::State& state) {
    // The production encode kernel: `images` quantized 784-pixel images x
    // dim thresholds, register-blocked over images with u8 counters.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto images = static_cast<std::size_t>(state.range(1));
    panel_workload w(dim, images);
    for (auto _ : state) {
        kernels::geq_block_accumulate(w.q.data(), w.pixels, images, w.panels.data(),
                                      dim, w.out.data(), 15);
        benchmark::DoNotOptimize(w.out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(images));
}
BENCHMARK(BM_GeqBlockKernel)->Args({1024, 1})->Args({1024, 64})->Args({8192, 1})->Args({8192, 64});

/// Per-backend benchmarks of the registry tables themselves (one set per
/// admissible backend, registered dynamically in main — see
/// register_backend_benchmarks). `table` is the backend under test.
void BM_BackendGeqBlockKernel(benchmark::State& state,
                              const kernels::kernel_table* table) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto images = static_cast<std::size_t>(state.range(1));
    panel_workload w(dim, images);
    for (auto _ : state) {
        table->geq_block_accumulate(w.q.data(), w.pixels, images, w.panels.data(), dim,
                                    w.out.data(), 15);
        benchmark::DoNotOptimize(w.out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(images));
}

/// A 10-class packed memory and one packed query at dimension `dim`, for
/// the Hamming benchmarks. A single query is a block of one: every
/// Hamming benchmark runs a block kernel with n_queries = 1.
struct hamming_workload {
    static constexpr std::size_t classes = 10;
    std::size_t words;
    std::vector<std::uint64_t> memory;
    std::vector<std::uint64_t> query;

    explicit hamming_workload(std::size_t dim)
        : words(kernels::sign_words(dim)), memory(classes * words), query(words) {
        xoshiro256ss rng(5);
        for (auto& w : memory) w = rng.next();
        for (auto& w : query) w = rng.next();
    }
};

void BM_BackendHammingArgmin(benchmark::State& state,
                             const kernels::kernel_table* table) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const hamming_workload w(dim);
    kernels::argmin2_result r{};
    for (auto _ : state) {
        table->hamming_block_argmin2_prefix(w.query.data(), w.words, 1,
                                            w.memory.data(), w.words, w.words,
                                            w.classes, &r);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(w.classes * dim));
}

/// One BM_BackendGeqBlockKernel / BM_BackendHammingArgmin pair per backend the
/// probe admits on this machine, so the per-ISA cost is visible in one run.
void register_backend_benchmarks() {
    for (const kernels::kernel_table* table : kernels::admissible_backends()) {
        const std::string suffix = std::string("_") + table->name;
        benchmark::RegisterBenchmark(("BM_BackendGeqBlockKernel" + suffix).c_str(),
                                     BM_BackendGeqBlockKernel, table)
            ->Args({1024, 1})
            ->Args({1024, 64});
        benchmark::RegisterBenchmark(("BM_BackendHammingArgmin" + suffix).c_str(),
                                     BM_BackendHammingArgmin, table)
            ->Arg(1024)
            ->Arg(8192);
    }
}

void BM_UhdEncodeScalar(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, digits().shape());
    std::vector<std::int32_t> acc(dim);
    std::size_t i = 0;
    for (auto _ : state) {
        enc.encode_scalar(digits().image(i++ % digits().size()), acc);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim * digits().shape().pixels()));
}
BENCHMARK(BM_UhdEncodeScalar)->Arg(1024)->Arg(8192);

void BM_UhdEncode(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, digits().shape());
    std::vector<std::int32_t> acc(dim);
    std::size_t i = 0;
    for (auto _ : state) {
        enc.encode(digits().image(i++ % digits().size()), acc);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim * digits().shape().pixels()));
}
BENCHMARK(BM_UhdEncode)->Arg(1024)->Arg(8192);

void BM_UhdRematEncode(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    core::uhd_config cfg;
    cfg.dim = dim;
    cfg.bank = bank_mode::rematerialize;
    const core::uhd_encoder enc(cfg, digits().shape());
    std::vector<std::int32_t> acc(dim);
    std::size_t i = 0;
    for (auto _ : state) {
        enc.encode(digits().image(i++ % digits().size()), acc);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim * digits().shape().pixels()));
}
BENCHMARK(BM_UhdRematEncode)->Arg(1024)->Arg(8192);

void BM_UhdEncodeBatch(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, digits().shape());
    std::vector<std::int32_t> out(digits().size() * dim);
    for (auto _ : state) {
        enc.encode_batch(digits(), out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(digits().size() * dim *
                                                      digits().shape().pixels()));
}
BENCHMARK(BM_UhdEncodeBatch)->Arg(1024);

void BM_BaselineEncode(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    hdc::baseline_config cfg;
    cfg.dim = dim;
    const hdc::baseline_encoder enc(cfg, digits().shape());
    std::vector<std::int32_t> acc(dim);
    std::size_t i = 0;
    for (auto _ : state) {
        enc.encode(digits().image(i++ % digits().size()), acc);
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim * digits().shape().pixels()));
}
BENCHMARK(BM_BaselineEncode)->Arg(1024)->Arg(8192);

void BM_SobolSequenceNext(benchmark::State& state) {
    const auto table = ld::sobol_directions::standard(4);
    ld::sobol_sequence seq(table.direction_numbers(3));
    for (auto _ : state) {
        benchmark::DoNotOptimize(seq.next_fraction());
    }
}
BENCHMARK(BM_SobolSequenceNext);

void BM_LfsrStep(benchmark::State& state) {
    ld::lfsr reg(32, 0xACE1, ld::lfsr_kind::fibonacci);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reg.step());
    }
}
BENCHMARK(BM_LfsrStep);

void BM_QuantizedBankBuild(benchmark::State& state) {
    const auto table = ld::sobol_directions::standard(64);
    for (auto _ : state) {
        ld::quantized_sobol_bank bank(table, 64, 1024, 16);
        benchmark::DoNotOptimize(bank.row(0).data());
    }
}
BENCHMARK(BM_QuantizedBankBuild);

void BM_HypervectorCosine(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(3);
    const hdc::hypervector a = hdc::hypervector::random(dim, rng);
    const hdc::hypervector b = hdc::hypervector::random(dim, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hdc::cosine(a, b));
    }
}
BENCHMARK(BM_HypervectorCosine)->Arg(1024)->Arg(8192);

void BM_PackedQueryCosine(benchmark::State& state) {
    // The fixed inner loop of integer-mode inference: packed query against
    // an int32 class accumulator (word-level sign masks).
    const auto dim = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(3);
    const hdc::hypervector query = hdc::hypervector::random(dim, rng);
    std::vector<std::int32_t> cls(dim);
    for (auto& v : cls) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hdc::cosine(query, std::span<const std::int32_t>(cls)));
    }
}
BENCHMARK(BM_PackedQueryCosine)->Arg(1024)->Arg(8192);

void BM_SignBinarizeReference(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(4);
    std::vector<std::int32_t> values(dim);
    for (auto& v : values) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    std::vector<std::uint64_t> words(kernels::sign_words(dim));
    for (auto _ : state) {
        simd::sign_binarize_reference(values.data(), dim, words.data());
        benchmark::DoNotOptimize(words.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SignBinarizeReference)->Arg(1024)->Arg(8192);

void BM_SignBinarize(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(4);
    std::vector<std::int32_t> values(dim);
    for (auto& v : values) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    std::vector<std::uint64_t> words(kernels::sign_words(dim));
    for (auto _ : state) {
        kernels::sign_binarize(values.data(), dim, words.data());
        benchmark::DoNotOptimize(words.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SignBinarize)->Arg(1024)->Arg(8192);

void BM_HammingArgminReference(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const hamming_workload w(dim);
    kernels::argmin2_result r{};
    for (auto _ : state) {
        simd::hamming_block_argmin2_prefix_reference(w.query.data(), w.words, 1,
                                                     w.memory.data(), w.words,
                                                     w.words, w.classes, &r);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(w.classes * dim));
}
BENCHMARK(BM_HammingArgminReference)->Arg(1024)->Arg(8192);

void BM_HammingArgmin(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const hamming_workload w(dim);
    kernels::argmin2_result r{};
    for (auto _ : state) {
        kernels::hamming_block_argmin2_prefix(w.query.data(), w.words, 1,
                                              w.memory.data(), w.words, w.words,
                                              w.classes, &r);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(w.classes * dim));
}
BENCHMARK(BM_HammingArgmin)->Arg(1024)->Arg(8192);

void BM_HammingArgmin2Prefix(benchmark::State& state) {
    // The dynamic-dimension query kernel: argmin + runner-up margin over a
    // D/8 prefix window of each packed class row (state.range = full D).
    const auto dim = static_cast<std::size_t>(state.range(0));
    const hamming_workload w(dim);
    const std::size_t window = std::max<std::size_t>(1, w.words / 8);
    kernels::argmin2_result r{};
    for (auto _ : state) {
        kernels::hamming_block_argmin2_prefix(w.query.data(), w.words, 1,
                                              w.memory.data(), w.words, window,
                                              w.classes, &r);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(w.classes * window * 64));
}
BENCHMARK(BM_HammingArgmin2Prefix)->Arg(1024)->Arg(8192);

void BM_BlockedDotI32(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    xoshiro256ss rng(6);
    std::vector<std::int32_t> a(dim);
    std::vector<std::int32_t> b(dim);
    for (auto& v : a) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    for (auto& v : b) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::dot_i32(a.data(), b.data(), dim));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_BlockedDotI32)->Arg(1024)->Arg(8192);

void BM_PopcountBinarizerFeed(benchmark::State& state) {
    for (auto _ : state) {
        core::popcount_binarizer bin(784);
        for (std::size_t i = 0; i < 784; ++i) bin.feed((i & 3) == 0);
        benchmark::DoNotOptimize(bin.sign_bit());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 784);
}
BENCHMARK(BM_PopcountBinarizerFeed);

void BM_UstFetch(benchmark::State& state) {
    const bs::unary_stream_table ust(16, 16);
    std::size_t q = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ust.fetch(q++ % 16));
    }
}
BENCHMARK(BM_UstFetch);

/// Median of `repeats` timed calls of `fn` after one warm-up call.
template <typename Fn>
double median_seconds(std::size_t repeats, const Fn& fn) {
    fn();
    std::vector<double> seconds;
    for (std::size_t r = 0; r < repeats; ++r) {
        stopwatch watch;
        fn();
        seconds.push_back(watch.seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[seconds.size() / 2];
}

// --- direct encode-throughput comparison + BENCH_encode.json --------------

/// Shared "backend" block of every BENCH_*.json: which kernel backend the
/// run selected, the UHD_BACKEND override in effect (null when unset), the
/// probed CPU feature set, and the backends compiled into the binary — so
/// the perf trajectory stays attributable across machines and overrides.
void write_backend_json(std::FILE* f) {
    std::fprintf(f, "  \"backend\": {\"selected\": \"%s\", \"override\": ",
                 kernels::active().name);
    const std::string_view override_value = kernels::backend_override();
    if (override_value.empty()) {
        std::fprintf(f, "null");
    } else {
        std::fprintf(f, "\"%.*s\"", static_cast<int>(override_value.size()),
                     override_value.data());
    }
    std::fprintf(f, ", \"cpu\": \"%s\", \"compiled\": [",
                 cpu().to_string().c_str());
    const auto compiled = kernels::compiled_backends();
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        std::fprintf(f, "\"%s\"%s", compiled[i]->name,
                     i + 1 < compiled.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
}

struct throughput_entry {
    std::string name;
    std::size_t threads;
    double seconds;
    double images_per_s;
    double gb_per_s;
    double speedup_vs_scalar;
};

/// One D of the stored-vs-rematerialize sweep (784 pixels throughout):
/// exact threshold-state bytes of both modes and single-thread encode
/// rates. gcmp_per_s is the dimension-normalized rate (pixel x dim
/// compares per second) — the measure that exposes the stored bank falling
/// out of LLC while the rematerializing stream holds rate.
struct sweep_row {
    std::size_t dim;
    std::size_t stored_bytes;
    std::size_t remat_bytes;
    double reduction;
    double stored_img_per_s;
    double remat_img_per_s;
    double stored_gcmp_per_s;
    double remat_gcmp_per_s;
    bool identical;
    // Single-thread encode_batch rates through the image-blocked panel
    // kernel: one image per call, eight per call (about the serve engine's
    // saturated micro-batch), and batch_images (64 unless the workload is
    // smaller) per call.
    double batch1_img_per_s;
    double batch8_img_per_s;
    double batch_img_per_s;
    bool batch_identical; ///< every batch shape equals the encode_scalar oracle
};

/// Hard gates of the encode JSON (schema v5): remat output bit-identical
/// to stored at every swept D, blocked encode_batch output bit-identical to
/// the encode_scalar oracle at every swept D and every batch shape, and
/// >= 100x threshold-state reduction at the paper's 784 x 8192 point.
/// throughput_hold is reported alongside: remat compare-rate at the
/// largest D (bank far past LLC) relative to the smallest D.
struct encode_gates {
    bool bit_identity;
    bool batch_bit_identity;
    bool footprint_100x;
    double throughput_hold;
};

void write_json(const std::string& path, const data::image_shape& shape,
                std::size_t dim, unsigned quant_levels, std::size_t images,
                std::size_t batch_images, const std::vector<throughput_entry>& entries,
                const std::vector<sweep_row>& sweep, const encode_gates& gates) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"encode\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f,
                 "  \"workload\": {\"rows\": %zu, \"cols\": %zu, \"dim\": %zu, "
                 "\"quant_levels\": %u, \"images\": %zu, \"batch_images\": %zu},\n",
                 shape.rows, shape.cols, dim, quant_levels, images, batch_images);
    write_backend_json(f);
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"threads\": %zu, \"seconds\": %.6f, "
                     "\"images_per_s\": %.1f, \"gb_per_s\": %.3f, "
                     "\"speedup_vs_scalar\": %.2f}%s\n",
                     e.name.c_str(), e.threads, e.seconds, e.images_per_s, e.gb_per_s,
                     e.speedup_vs_scalar, i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"footprint\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& r = sweep[i];
        std::fprintf(f,
                     "    {\"dim\": %zu, \"pixels\": %zu, \"stored_bytes\": %zu, "
                     "\"remat_bytes\": %zu, \"reduction\": %.1f}%s\n",
                     r.dim, shape.pixels(), r.stored_bytes, r.remat_bytes, r.reduction,
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"dsweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& r = sweep[i];
        std::fprintf(f,
                     "    {\"dim\": %zu, \"stored_img_per_s\": %.1f, "
                     "\"remat_img_per_s\": %.1f, \"stored_gcmp_per_s\": %.3f, "
                     "\"remat_gcmp_per_s\": %.3f, \"identical\": %s, "
                     "\"batch1_img_per_s\": %.1f, \"batch8_img_per_s\": %.1f, "
                     "\"batch_img_per_s\": %.1f, \"batch_identical\": %s}%s\n",
                     r.dim, r.stored_img_per_s, r.remat_img_per_s,
                     r.stored_gcmp_per_s, r.remat_gcmp_per_s,
                     r.identical ? "true" : "false", r.batch1_img_per_s,
                     r.batch8_img_per_s, r.batch_img_per_s,
                     r.batch_identical ? "true" : "false",
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"gates\": {\"bit_identity\": %s, \"batch_bit_identity\": %s, "
                 "\"footprint_100x\": %s, \"throughput_hold\": %.3f}\n",
                 gates.bit_identity ? "true" : "false",
                 gates.batch_bit_identity ? "true" : "false",
                 gates.footprint_100x ? "true" : "false", gates.throughput_hold);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
}

int run_encode_throughput() {
    const std::size_t dim = 1024;
    const auto images_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(env_int("UHD_BENCH_IMAGES", 64)));
    const data::dataset ds = data::make_synthetic_digits(images_n, 7); // 28x28
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, ds.shape());

    const double bytes_per_image = bench::encode_bytes_per_image(enc);
    std::vector<throughput_entry> entries;

    const auto record = [&](const std::string& name, std::size_t threads,
                            double seconds, std::size_t images) {
        throughput_entry e;
        e.name = name;
        e.threads = threads;
        e.seconds = seconds;
        e.images_per_s = static_cast<double>(images) / seconds;
        e.gb_per_s = e.images_per_s * bytes_per_image * 1e-9;
        e.speedup_vs_scalar = entries.empty() ? 1.0 : entries.front().seconds / seconds;
        entries.push_back(e);
        std::printf("%-28s %8.1f img/s %8.3f GB/s  %5.2fx\n", name.c_str(),
                    e.images_per_s, e.gb_per_s, e.speedup_vs_scalar);
    };

    std::printf("\n== encode throughput: 28x28, D=%zu, xi=%u, %zu images ==\n", dim,
                cfg.quant_levels, images_n);

    record("encode_scalar", 1, bench::time_encode_scalar(enc, ds, images_n),
           images_n);
    record("encode_word_parallel", 1, bench::time_encode_parallel(enc, ds, images_n),
           images_n);

    std::vector<std::int32_t> out(images_n * dim);
    record("encode_batch", 1, bench::time_encode_batch(enc, ds, images_n, out),
           images_n);
    // parallel_for runs one chunk on the calling thread, so a pool of
    // N-1 workers computes on N threads; `threads` reports compute threads.
    for (const std::size_t threads : {2u, 4u}) {
        thread_pool pool(threads - 1);
        record("encode_batch_pool" + std::to_string(threads), threads,
               bench::time_encode_batch(enc, ds, images_n, out, &pool), images_n);
    }

    core::uhd_config remat_cfg = cfg;
    remat_cfg.bank = bank_mode::rematerialize;
    const core::uhd_encoder remat_enc(remat_cfg, ds.shape());
    record("encode_remat", 1, bench::time_encode_parallel(remat_enc, ds, images_n),
           images_n);

    const double speedup = entries[0].seconds / entries[1].seconds;
    std::printf("word-parallel vs scalar single-thread speedup: %.2fx %s\n", speedup,
                speedup >= 5.0 ? "(target >= 5x: PASS)" : "(target >= 5x: MISS)");

    // Stored-vs-rematerialize sweep: exact threshold-state footprint and
    // single-thread encode rate as D pushes the stored bank past LLC
    // (784 x 16384 = 12.25 MiB of thresholds; remat state stays ~46 KiB).
    // Bit-identity of the two modes at every D and the >= 100x reduction
    // at the paper's 784 x 8192 point are the hard gates of this bench.
    std::printf("\n== encode footprint + D-sweep: 28x28, stored vs rematerialize ==\n");
    std::vector<sweep_row> sweep;
    bool bit_identity = true;
    bool batch_bit_identity = true;
    bool footprint_100x = false;
    const std::size_t sweep_images = std::min<std::size_t>(images_n, 16);
    const std::size_t batch_images = std::min<std::size_t>(images_n, 64);
    std::vector<std::uint8_t> batch_flat;
    for (std::size_t i = 0; i < batch_images; ++i) {
        const auto img = ds.image(i);
        batch_flat.insert(batch_flat.end(), img.begin(), img.end());
    }
    for (const std::size_t d : {1024u, 4096u, 8192u, 16384u}) {
        core::uhd_config scfg;
        scfg.dim = d;
        core::uhd_config rcfg = scfg;
        rcfg.bank = bank_mode::rematerialize;
        const core::uhd_encoder stored(scfg, ds.shape());
        const core::uhd_encoder remat(rcfg, ds.shape());

        sweep_row row;
        row.dim = d;
        row.stored_bytes = stored.threshold_bytes();
        row.remat_bytes = remat.threshold_bytes();
        row.reduction =
            static_cast<double>(row.stored_bytes) / static_cast<double>(row.remat_bytes);
        if (d == 8192 && row.reduction >= 100.0) footprint_100x = true;

        row.identical = true;
        std::vector<std::int32_t> a(d);
        std::vector<std::int32_t> b(d);
        for (std::size_t i = 0; i < sweep_images; ++i) {
            stored.encode(ds.image(i), a);
            remat.encode(ds.image(i), b);
            if (a != b) row.identical = false;
        }
        bit_identity = bit_identity && row.identical;

        const double pixels = static_cast<double>(ds.shape().pixels());
        row.stored_img_per_s = static_cast<double>(sweep_images) /
                               bench::time_encode_parallel(stored, ds, sweep_images);
        row.remat_img_per_s = static_cast<double>(sweep_images) /
                              bench::time_encode_parallel(remat, ds, sweep_images);
        // Compare-ops/s normalizes out the D-proportional work per image:
        // this is the rate that must hold flat for remat past LLC.
        row.stored_gcmp_per_s =
            row.stored_img_per_s * static_cast<double>(d) * pixels * 1e-9;
        row.remat_gcmp_per_s =
            row.remat_img_per_s * static_cast<double>(d) * pixels * 1e-9;

        // Blocked encode_batch on one thread: one image per call, eight per
        // call, then the whole batch in one call; all must equal the scalar
        // oracle. Each shape reports the rate of its median pass (one
        // warm-up pass, then five timed ones).
        const std::size_t px = ds.shape().pixels();
        const auto time_calls = [&](std::size_t per_call, std::vector<std::int32_t>& out) {
            return static_cast<double>(batch_images) / median_seconds(5, [&] {
                for (std::size_t i = 0; i < batch_images; i += per_call) {
                    const std::size_t n = std::min(per_call, batch_images - i);
                    stored.encode_batch(
                        std::span<const std::uint8_t>(batch_flat).subspan(i * px, n * px),
                        n, std::span<std::int32_t>(out).subspan(i * d, n * d));
                }
            });
        };
        std::vector<std::int32_t> one_each(batch_images * d);
        std::vector<std::int32_t> eight_each(batch_images * d);
        std::vector<std::int32_t> blocked(batch_images * d);
        row.batch1_img_per_s = time_calls(1, one_each);
        row.batch8_img_per_s = time_calls(8, eight_each);
        row.batch_img_per_s = time_calls(batch_images, blocked);
        row.batch_identical = one_each == blocked && eight_each == blocked;
        for (std::size_t i = 0; i < sweep_images && row.batch_identical; ++i) {
            stored.encode_scalar(ds.image(i), a);
            row.batch_identical =
                std::equal(a.begin(), a.end(), blocked.begin() + static_cast<std::ptrdiff_t>(i * d));
        }
        batch_bit_identity = batch_bit_identity && row.batch_identical;
        std::printf("D=%-6zu stored %9zu B  remat %6zu B  (%6.1fx)  "
                    "%7.1f vs %7.1f img/s  %.2f vs %.2f Gcmp/s  %s  "
                    "batch x1 %8.1f  x8 %8.1f  x%zu %8.1f img/s  %s\n",
                    d, row.stored_bytes, row.remat_bytes, row.reduction,
                    row.stored_img_per_s, row.remat_img_per_s, row.stored_gcmp_per_s,
                    row.remat_gcmp_per_s, row.identical ? "identical" : "DIVERGED",
                    row.batch1_img_per_s, row.batch8_img_per_s, batch_images,
                    row.batch_img_per_s,
                    row.batch_identical ? "identical" : "DIVERGED");
        sweep.push_back(row);
    }

    encode_gates gates;
    gates.bit_identity = bit_identity;
    gates.batch_bit_identity = batch_bit_identity;
    gates.footprint_100x = footprint_100x;
    gates.throughput_hold =
        sweep.back().remat_gcmp_per_s / sweep.front().remat_gcmp_per_s;
    std::printf("gates: bit_identity %s, batch_bit_identity %s, footprint_100x@8192 %s, "
                "remat rate hold D=%zu->%zu: %.2fx\n",
                gates.bit_identity ? "PASS" : "FAIL",
                gates.batch_bit_identity ? "PASS" : "FAIL",
                gates.footprint_100x ? "PASS" : "FAIL", sweep.front().dim,
                sweep.back().dim, gates.throughput_hold);

    write_json(env_string("UHD_BENCH_JSON", "BENCH_encode.json"), ds.shape(), dim,
               cfg.quant_levels, images_n, batch_images, entries, sweep, gates);
    if (!gates.bit_identity) {
        std::fprintf(stderr,
                     "FAIL: rematerialized encode diverged from the stored bank\n");
        return 1;
    }
    if (!gates.batch_bit_identity) {
        std::fprintf(stderr, "FAIL: blocked encode_batch diverged from encode_scalar\n");
        return 1;
    }
    if (!gates.footprint_100x) {
        std::fprintf(stderr,
                     "FAIL: threshold-state reduction below 100x at 784 x 8192\n");
        return 1;
    }
    return 0;
}

// --- direct train-throughput comparison + BENCH_train.json ----------------

struct train_entry {
    std::string name;
    std::size_t threads;
    double seconds;
    double images_per_s;
    double speedup_vs_seed;
};

/// Paper-scale class-histogram training against per-image encode + bundle.
struct histogram_entry {
    std::size_t dim = 0;
    std::size_t images = 0;
    double per_image_img_per_s = 0.0;
    double fit_parallel_img_per_s = 0.0;
    bool identical = false;
};

void write_train_json(const std::string& path, const data::image_shape& shape,
                      std::size_t dim, unsigned quant_levels, std::size_t images,
                      std::size_t classes, bool deterministic,
                      const std::vector<train_entry>& entries,
                      const histogram_entry& histogram) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"train\",\n");
    std::fprintf(f, "  \"schema_version\": 3,\n");
    std::fprintf(f,
                 "  \"workload\": {\"rows\": %zu, \"cols\": %zu, \"dim\": %zu, "
                 "\"quant_levels\": %u, \"images\": %zu, \"classes\": %zu},\n",
                 shape.rows, shape.cols, dim, quant_levels, images, classes);
    write_backend_json(f);
    std::fprintf(f, "  \"determinism\": {\"parallel_matches_sequential\": %s},\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"threads\": %zu, \"seconds\": %.6f, "
                     "\"images_per_s\": %.1f, \"speedup_vs_seed\": %.2f}%s\n",
                     e.name.c_str(), e.threads, e.seconds, e.images_per_s,
                     e.speedup_vs_seed, i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"histogram\": {\"pixels\": %zu, \"dim\": %zu, \"images\": %zu, "
                 "\"threads\": 1, \"per_image_img_per_s\": %.1f, "
                 "\"fit_parallel_img_per_s\": %.1f, \"speedup\": %.2f, "
                 "\"identical\": %s}\n",
                 shape.pixels(), histogram.dim, histogram.images,
                 histogram.per_image_img_per_s, histogram.fit_parallel_img_per_s,
                 histogram.fit_parallel_img_per_s / histogram.per_image_img_per_s,
                 histogram.identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
}

/// Single-thread training at the paper's 784 pixels x D=8192: per-image
/// encode (encode_batch in blocks of 64) + bundle into the class
/// accumulators, against fit_parallel's class-histogram path. The two must
/// give identical accumulators.
[[nodiscard]] histogram_entry measure_histogram_training(std::size_t images) {
    histogram_entry h;
    h.dim = 8192;
    h.images = images;
    const data::dataset ds = data::make_synthetic_digits(images, 8); // 28x28
    core::uhd_config cfg;
    cfg.dim = h.dim;
    const core::uhd_encoder enc(cfg, ds.shape());
    const std::size_t block = core::uhd_encoder::encode_block_images;

    std::vector<hdc::accumulator> per_image;
    std::vector<std::int32_t> encoded(block * h.dim);
    const double per_image_s = median_seconds(3, [&] {
        per_image.assign(ds.num_classes(), hdc::accumulator(h.dim));
        for (std::size_t b = 0; b < images; b += block) {
            const std::size_t n = std::min(block, images - b);
            enc.encode_batch(ds.images(b, n), n,
                             std::span<std::int32_t>(encoded).first(n * h.dim));
            for (std::size_t i = 0; i < n; ++i) {
                per_image[ds.label(b + i)].add_values(
                    std::span<const std::int32_t>(encoded).subspan(i * h.dim, h.dim));
            }
        }
    });
    hdc::hd_classifier<core::uhd_encoder> clf(enc, ds.num_classes(),
                                              hdc::train_mode::raw_sums);
    const double fit_s = median_seconds(3, [&] {
        clf = hdc::hd_classifier<core::uhd_encoder>(enc, ds.num_classes(),
                                                    hdc::train_mode::raw_sums);
        clf.fit_parallel(ds, nullptr);
    });
    h.identical = true;
    for (std::size_t c = 0; c < ds.num_classes(); ++c) {
        const auto a = per_image[c].values();
        const auto b = clf.class_accumulator(c).values();
        h.identical = h.identical && std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    h.per_image_img_per_s = static_cast<double>(images) / per_image_s;
    h.fit_parallel_img_per_s = static_cast<double>(images) / fit_s;
    std::printf("class histograms, 28x28, D=%zu, %zu images, 1 thread: per-image "
                "%.1f img/s, fit_parallel %.1f img/s (%.2fx) %s\n",
                h.dim, images, h.per_image_img_per_s, h.fit_parallel_img_per_s,
                h.fit_parallel_img_per_s / h.per_image_img_per_s,
                h.identical ? "identical" : "DIVERGED");
    return h;
}

[[nodiscard]] int run_train_throughput() {
    // The acceptance workload: synthetic MNIST-shaped 28x28 images at
    // D=1024, 10 classes. The baseline is the seed's per-image sequential
    // loop (pinned-scalar encode + bundle); the engine entries are the
    // current sequential fit (word-parallel encode) and the mini-batch
    // parallel fit at several pool sizes.
    const std::size_t dim = 1024;
    const auto images_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(env_int("UHD_BENCH_TRAIN_IMAGES", 128)));
    const data::dataset ds = data::make_synthetic_digits(images_n, 7); // 28x28
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, ds.shape());

    // Determinism gate before any timing: the parallel engine must be
    // bit-identical to the sequential fit, or its speedup means nothing.
    hdc::hd_classifier<core::uhd_encoder> clf_seq(enc, ds.num_classes(),
                                                  hdc::train_mode::raw_sums);
    clf_seq.fit(ds);
    bool deterministic = true;
    {
        thread_pool pool(3);
        hdc::hd_classifier<core::uhd_encoder> clf_par(enc, ds.num_classes(),
                                                      hdc::train_mode::raw_sums);
        clf_par.fit_parallel(ds, &pool);
        for (std::size_t c = 0; c < clf_seq.classes() && deterministic; ++c) {
            const auto a = clf_seq.class_accumulator(c).values();
            const auto b = clf_par.class_accumulator(c).values();
            for (std::size_t d = 0; d < a.size(); ++d) {
                if (a[d] != b[d]) {
                    deterministic = false;
                    break;
                }
            }
        }
    }

    std::vector<train_entry> entries;
    const auto record = [&](const std::string& name, std::size_t threads,
                            double seconds) {
        train_entry e;
        e.name = name;
        e.threads = threads;
        e.seconds = seconds;
        e.images_per_s = static_cast<double>(images_n) / seconds;
        e.speedup_vs_seed = entries.empty() ? 1.0 : entries.front().seconds / seconds;
        entries.push_back(e);
        std::printf("%-28s %8.1f img/s  %5.2fx\n", name.c_str(), e.images_per_s,
                    e.speedup_vs_seed);
    };

    std::printf("\n== train throughput: 28x28, D=%zu, %zu classes, %zu images ==\n",
                dim, ds.num_classes(), images_n);
    std::printf("parallel-fit vs sequential fit: %s\n",
                deterministic ? "bit-identical" : "MISMATCH!");

    record("fit_seed_sequential", 1, bench::time_fit_seed(enc, ds, images_n));
    {
        hdc::hd_classifier<core::uhd_encoder> clf(enc, ds.num_classes(),
                                                  hdc::train_mode::raw_sums);
        stopwatch watch;
        clf.fit(ds);
        record("fit_sequential", 1, watch.seconds());
    }
    {
        hdc::hd_classifier<core::uhd_encoder> clf(enc, ds.num_classes(),
                                                  hdc::train_mode::raw_sums);
        stopwatch watch;
        clf.fit_parallel(ds, nullptr);
        record("fit_parallel_1t", 1, watch.seconds());
    }
    double best_parallel_speedup = 0.0;
    for (const std::size_t threads : {2u, 4u}) {
        thread_pool pool(threads - 1);
        hdc::hd_classifier<core::uhd_encoder> clf(enc, ds.num_classes(),
                                                  hdc::train_mode::raw_sums);
        stopwatch watch;
        clf.fit_parallel(ds, &pool);
        record("fit_parallel_" + std::to_string(threads) + "t", threads,
               watch.seconds());
        best_parallel_speedup =
            std::max(best_parallel_speedup, entries.back().speedup_vs_seed);
    }

    const bool speedup_ok = best_parallel_speedup >= 4.0;
    std::printf("multi-thread parallel fit vs seed sequential loop: %.2fx %s\n",
                best_parallel_speedup,
                speedup_ok ? "(target >= 4x: PASS)" : "(target >= 4x: MISS)");

    // Paper-scale class-histogram entry: enough images that every class
    // clears the histogram crossover.
    const histogram_entry histogram = measure_histogram_training(16 * images_n);
    if (!histogram.identical) {
        std::fprintf(stderr, "FAIL: class-histogram fit diverged from per-image bundling\n");
    }

    write_train_json(env_string("UHD_BENCH_TRAIN_JSON", "BENCH_train.json"),
                     ds.shape(), dim, cfg.quant_levels, images_n, ds.num_classes(),
                     deterministic, entries, histogram);
    return deterministic && speedup_ok && histogram.identical ? 0 : 1;
}

// --- direct inference-throughput comparison + BENCH_inference.json --------

struct inference_entry {
    std::string name;
    std::string mode;
    std::size_t threads;
    double seconds;
    double queries_per_s;
    double speedup_vs_scalar;
};

/// Dynamic-dimension cascade measurements for the inference JSON.
struct dynamic_report {
    double target_agreement = 0.0;
    std::size_t matched = 0;          ///< argmax agreement with full-D
    std::size_t queries = 0;
    double avg_words_scanned = 0.0;   ///< packed words popcounted per query
    std::size_t full_words = 0;       ///< classes * words_per_class
    std::vector<hdc::dynamic_stage> stages;
    std::vector<std::size_t> exits;   ///< per-stage exit counts
};

/// One block-size point of the multi-query blocked-inference sweep.
struct block_entry {
    std::size_t block = 1;          ///< queries per nearest_block call
    double seconds = 0.0;           ///< seconds per query
    double queries_per_s = 0.0;
    double speedup_vs_per_query = 0.0;
};

/// Blocked-inference measurements for the inference JSON (schema v4).
struct block_report {
    std::size_t classes = 0;
    std::size_t queries = 0;
    bool identical = true;          ///< block answers == per-query answers
    double best_speedup = 0.0;      ///< max over the sweep
    std::vector<block_entry> entries;
};

/// Measure the query-GEMM path: a many-class packed memory (the blocking
/// win is row *reuse*, so the class rows must outgrow the fast caches —
/// the 10-class digits memory is ~10 KiB and fits in L1) answered per
/// query via nearest() and in blocks of 4/8/16/32 via nearest_block().
/// Every block answer is checked bit-identical to the per-query one.
[[nodiscard]] block_report run_block_throughput(std::size_t dim) {
    block_report report;
    report.classes = std::max<std::size_t>(
        2, static_cast<std::size_t>(env_int("UHD_BENCH_BLOCK_CLASSES", 4096)));
    report.queries = std::max<std::size_t>(
        32, static_cast<std::size_t>(env_int("UHD_BENCH_BLOCK_QUERIES", 128)));

    xoshiro256ss rng(0x9e3779b97f4a7c15ull);
    hdc::class_memory mem(report.classes, dim);
    for (std::size_t c = 0; c < report.classes; ++c) {
        mem.store(c, hdc::hypervector::random(dim, rng));
    }
    const std::size_t words = mem.words_per_class();
    std::vector<std::uint64_t> packed(report.queries * words);
    for (std::size_t q = 0; q < report.queries; ++q) {
        const auto query_words = hdc::hypervector::random(dim, rng).bits().words();
        std::copy(query_words.begin(), query_words.end(),
                  packed.begin() + static_cast<std::ptrdiff_t>(q * words));
    }
    const auto query = [&](std::size_t q) {
        return std::span<const std::uint64_t>(packed.data() + q * words, words);
    };

    std::printf("\n== blocked inference (query-GEMM): D=%zu, %zu classes "
                "(%.1f MiB packed), %zu queries ==\n",
                dim, report.classes,
                static_cast<double>(report.classes * words * 8) / (1024.0 * 1024.0),
                report.queries);

    std::vector<std::size_t> per_query(report.queries);
    std::size_t sink = 0;
    const double per_query_s = bench::time_inference(
        report.queries,
        [&](std::size_t q) { return per_query[q] = mem.nearest(query(q)); }, sink);
    report.entries.push_back(
        {1, per_query_s, 1.0 / per_query_s, 1.0});
    std::printf("block=%-3zu %12.1f query/s  %6.2fx\n", std::size_t{1},
                1.0 / per_query_s, 1.0);

    std::vector<std::size_t> blocked(report.queries);
    for (const std::size_t block : {4u, 8u, 16u, 32u}) {
        const auto answer_blocked = [&] {
            for (std::size_t q = 0; q < report.queries; q += block) {
                const std::size_t count = std::min(block, report.queries - q);
                mem.nearest_block(
                    std::span<const std::uint64_t>(packed.data() + q * words,
                                                   count * words),
                    count, std::span<std::size_t>(blocked.data() + q, count));
            }
        };
        answer_blocked();
        if (blocked != per_query) report.identical = false;
        stopwatch watch;
        std::size_t done = 0;
        do {
            answer_blocked();
            done += report.queries;
        } while (watch.seconds() < 0.05);
        const double seconds = watch.seconds() / static_cast<double>(done);
        const double speedup = per_query_s / seconds;
        report.entries.push_back({block, seconds, 1.0 / seconds, speedup});
        report.best_speedup = std::max(report.best_speedup, speedup);
        std::printf("block=%-3zu %12.1f query/s  %6.2fx\n", block, 1.0 / seconds,
                    speedup);
        benchmark::DoNotOptimize(blocked.data());
    }
    benchmark::DoNotOptimize(sink);
    std::printf("block answers bit-identical to per-query: %s; best speedup "
                "%.2fx %s\n",
                report.identical ? "yes" : "NO (MISMATCH!)", report.best_speedup,
                report.best_speedup >= 2.0 ? "(target >= 2x: PASS)"
                                           : "(target >= 2x: MISS)");
    return report;
}

void write_inference_json(const std::string& path, std::size_t dim,
                          std::size_t classes, std::size_t queries,
                          std::size_t matched, const dynamic_report& dynamic,
                          const block_report& block,
                          const std::vector<inference_entry>& entries) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"inference\",\n");
    std::fprintf(f, "  \"schema_version\": 4,\n");
    std::fprintf(f,
                 "  \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"queries\": %zu},\n",
                 dim, classes, queries);
    write_backend_json(f);
    std::fprintf(f, "  \"agreement\": {\"matched\": %zu, \"queries\": %zu},\n",
                 matched, queries);
    std::fprintf(f, "  \"dynamic\": {\n");
    std::fprintf(f, "    \"target_agreement\": %.4f,\n", dynamic.target_agreement);
    std::fprintf(f, "    \"agreement\": {\"matched\": %zu, \"queries\": %zu},\n",
                 dynamic.matched, dynamic.queries);
    std::fprintf(f, "    \"avg_words_scanned_per_query\": %.1f,\n",
                 dynamic.avg_words_scanned);
    std::fprintf(f, "    \"full_words_per_query\": %zu,\n", dynamic.full_words);
    std::fprintf(f, "    \"avg_scan_fraction\": %.4f,\n",
                 dynamic.full_words == 0
                     ? 1.0
                     : dynamic.avg_words_scanned /
                           static_cast<double>(dynamic.full_words));
    std::fprintf(f, "    \"stages\": [\n");
    for (std::size_t s = 0; s < dynamic.stages.size(); ++s) {
        const bool disabled = dynamic.stages[s].margin_threshold ==
                              hdc::dynamic_query_policy::disabled_threshold;
        std::fprintf(f, "      {\"window_words\": %zu, \"margin_threshold\": ",
                     dynamic.stages[s].window_words);
        if (disabled) {
            std::fprintf(f, "null");
        } else {
            std::fprintf(f, "%llu",
                         static_cast<unsigned long long>(
                             dynamic.stages[s].margin_threshold));
        }
        std::fprintf(f, ", \"exits\": %zu}%s\n", dynamic.exits[s],
                     s + 1 < dynamic.stages.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
    // Schema v4: the multi-query blocked path (query-GEMM) over a
    // many-class memory, swept across block sizes, with its bit-identity
    // flag and the >= 2x acceptance gate.
    std::fprintf(f, "  \"block\": {\n");
    std::fprintf(f,
                 "    \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"queries\": %zu},\n",
                 dim, block.classes, block.queries);
    std::fprintf(f, "    \"identical_to_per_query\": %s,\n",
                 block.identical ? "true" : "false");
    std::fprintf(f, "    \"best_speedup\": %.2f,\n", block.best_speedup);
    std::fprintf(f, "    \"entries\": [\n");
    for (std::size_t i = 0; i < block.entries.size(); ++i) {
        const block_entry& e = block.entries[i];
        std::fprintf(f,
                     "      {\"block\": %zu, \"seconds\": %.9f, "
                     "\"queries_per_s\": %.1f, \"speedup_vs_per_query\": "
                     "%.2f}%s\n",
                     e.block, e.seconds, e.queries_per_s, e.speedup_vs_per_query,
                     i + 1 < block.entries.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"gates\": {\"speedup_2x\": %s}\n",
                 block.best_speedup >= 2.0 ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"mode\": \"%s\", \"threads\": %zu, "
                     "\"seconds\": %.9f, \"queries_per_s\": %.1f, "
                     "\"speedup_vs_scalar\": %.2f}%s\n",
                     e.name.c_str(), e.mode.c_str(), e.threads, e.seconds,
                     e.queries_per_s, e.speedup_vs_scalar,
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
}

[[nodiscard]] int run_inference_throughput() {
    // The acceptance workload: D=8192, 10 classes, single thread, pure
    // inference stage (queries pre-encoded — encode has its own section).
    const std::size_t dim = 8192;
    const auto queries_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(env_int("UHD_BENCH_QUERIES", 256)));
    const data::dataset train_set = data::make_synthetic_digits(200, 7);
    const data::dataset query_set = data::make_synthetic_digits(queries_n, 9);

    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, train_set.shape());
    hdc::hd_classifier<core::uhd_encoder> clf_bin(enc, train_set.num_classes(),
                                                  hdc::train_mode::raw_sums,
                                                  hdc::query_mode::binarized);
    clf_bin.fit(train_set);
    const auto clf_int =
        bench::clone_with_query_mode(clf_bin, hdc::query_mode::integer);

    const std::vector<std::int32_t> encoded =
        bench::encode_queries(enc, query_set, queries_n);
    const auto query = [&](std::size_t i) {
        return std::span<const std::int32_t>(encoded).subspan(i * dim, dim);
    };

    // The packed path must agree with the seed path on every query before
    // its speedup means anything.
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < queries_n; ++i) {
        if (clf_bin.predict_encoded(query(i)) !=
            bench::seed_predict_binarized(clf_bin, query(i))) {
            ++mismatches;
        }
    }

    std::vector<inference_entry> entries;
    double binarized_scalar_s = 0.0;
    double integer_scalar_s = 0.0;
    const auto record = [&](const std::string& name, const std::string& mode,
                            double seconds) {
        inference_entry e;
        e.name = name;
        e.mode = mode;
        e.threads = 1;
        e.seconds = seconds;
        e.queries_per_s = 1.0 / seconds;
        const double baseline =
            mode == "binarized" ? binarized_scalar_s : integer_scalar_s;
        e.speedup_vs_scalar = baseline > 0.0 ? baseline / seconds : 1.0;
        entries.push_back(e);
        std::printf("%-28s %10.1f query/s  %6.2fx\n", name.c_str(), e.queries_per_s,
                    e.speedup_vs_scalar);
    };

    std::printf("\n== inference throughput: D=%zu, %zu classes, %zu queries "
                "(pre-encoded, 1 thread) ==\n",
                dim, clf_bin.classes(), queries_n);
    std::printf("packed vs seed argmax agreement: %zu/%zu%s\n",
                queries_n - mismatches, queries_n,
                mismatches == 0 ? "" : "  (MISMATCH!)");

    std::size_t sink = 0;
    binarized_scalar_s = bench::time_inference(
        queries_n,
        [&](std::size_t i) { return bench::seed_predict_binarized(clf_bin, query(i)); },
        sink);
    record("inference_cosine_scalar", "binarized", binarized_scalar_s);
    record("inference_packed_am", "binarized",
           bench::time_inference(
               queries_n,
               [&](std::size_t i) { return clf_bin.predict_encoded(query(i)); },
               sink));
    integer_scalar_s = bench::time_inference(
        queries_n,
        [&](std::size_t i) { return bench::seed_predict_integer(clf_int, query(i)); },
        sink);
    record("inference_integer_scalar", "integer", integer_scalar_s);
    record("inference_integer_blocked", "integer",
           bench::time_inference(
               queries_n,
               [&](std::size_t i) { return clf_int.predict_encoded(query(i)); },
               sink));

    // --- dynamic-dimension early-exit cascade ----------------------------
    // Calibrated on a held-out synthetic set (fresh seed) for 99% agreement
    // with the full-D answer, then evaluated on the bench queries: argmax
    // agreement, average packed words scanned, and the per-stage exit
    // histogram all land in the JSON and are gated below.
    const double target_agreement = 0.99;
    const data::dataset calib_set = data::make_synthetic_digits(
        std::max<std::size_t>(64, queries_n / 2), 13);
    const hdc::dynamic_query_policy policy =
        clf_bin.calibrate_dynamic(calib_set, target_agreement);

    hdc::dynamic_query_summary summary(policy.stages().size());
    for (std::size_t i = 0; i < queries_n; ++i) {
        hdc::dynamic_query_stats stats;
        const std::size_t answer =
            clf_bin.predict_dynamic_encoded(query(i), policy, &stats);
        summary.record(stats, answer == clf_bin.predict_encoded(query(i)));
    }
    dynamic_report dyn;
    dyn.target_agreement = target_agreement;
    dyn.queries = queries_n;
    dyn.matched = summary.agreements;
    dyn.full_words = clf_bin.packed_class_memory().classes() *
                     clf_bin.packed_class_memory().words_per_class();
    dyn.stages.assign(policy.stages().begin(), policy.stages().end());
    dyn.exits = summary.exits;
    dyn.avg_words_scanned = summary.avg_words_scanned();
    const double scan_fraction =
        dyn.avg_words_scanned / static_cast<double>(dyn.full_words);

    record("inference_dynamic_am", "binarized",
           bench::time_inference(
               queries_n,
               [&](std::size_t i) {
                   return clf_bin.predict_dynamic_encoded(query(i), policy);
               },
               sink));
    benchmark::DoNotOptimize(sink);

    std::printf("dynamic cascade (target %.0f%%): agreement %zu/%zu, avg words "
                "scanned %.1f/%zu (%.1f%%)\n",
                100.0 * target_agreement, dyn.matched, queries_n,
                dyn.avg_words_scanned, dyn.full_words, 100.0 * scan_fraction);
    std::printf("exit histogram:");
    for (std::size_t s = 0; s < dyn.stages.size(); ++s) {
        std::printf(" D/%zu:%zu",
                    clf_bin.packed_class_memory().words_per_class() /
                        dyn.stages[s].window_words,
                    dyn.exits[s]);
    }
    std::printf("\n");

    // --- multi-query blocked path (query-GEMM) ---------------------------
    const block_report block = run_block_throughput(dim);

    const double speedup = entries[0].seconds / entries[1].seconds;
    std::printf("packed associative-memory vs seed cosine speedup: %.2fx %s\n",
                speedup,
                speedup >= 5.0 ? "(target >= 5x: PASS)" : "(target >= 5x: MISS)");
    const bool dynamic_agreement_ok =
        static_cast<double>(dyn.matched) >= 0.98 * static_cast<double>(queries_n);
    const bool dynamic_scan_ok = scan_fraction <= 0.5;
    std::printf("dynamic gates: agreement >= 98%%: %s, avg scan <= 50%%: %s\n",
                dynamic_agreement_ok ? "PASS" : "MISS",
                dynamic_scan_ok ? "PASS" : "MISS");

    write_inference_json(env_string("UHD_BENCH_INFER_JSON", "BENCH_inference.json"),
                         dim, clf_bin.classes(), queries_n, queries_n - mismatches,
                         dyn, block, entries);
    // A broken bit-identity — or a cascade that misses its calibrated
    // agreement/scan targets, or a block path that diverges from the
    // per-query answers — is a regression, not a bench result: fail the
    // run so CI's bench smoke surfaces it. (The block >= 2x speedup is a
    // JSON gate, not an exit gate: it holds on cache-tiered hardware but a
    // throttled CI runner must not flake the build over it.)
    return mismatches == 0 && dynamic_agreement_ok && dynamic_scan_ok &&
                   block.identical
               ? 0
               : 1;
}

} // namespace

int main(int argc, char** argv) {
    // Resolve the backend before anything times: an invalid UHD_BACKEND
    // must fail the run here, loudly, not midway through a measurement.
    std::printf("# kernel backend: %s (override: %s, cpu: %s)\n",
                kernels::active().name,
                kernels::backend_override().empty()
                    ? "none"
                    : std::string(kernels::backend_override()).c_str(),
                cpu().to_string().c_str());
    register_backend_benchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const int encode_status = run_encode_throughput();
    const int train_status = run_train_throughput();
    const int inference_status = run_inference_throughput();
    if (encode_status != 0) return encode_status;
    return train_status != 0 ? train_status : inference_status;
}
