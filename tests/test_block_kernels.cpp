// Tests for the multi-query blocked inference path (query-GEMM): the block
// kernels against the pinned scalar oracle across every admissible backend
// (ragged query/row/word counts included), and the bit-identity of every
// block read path — nearest_block, the stage-synchronized block cascade,
// predict_block, predict_batch/evaluate, and the serve engine's one-call
// micro-batch drain — with its single-query counterpart.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "uhd/common/kernels.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

/// RAII reset: leave the process on the environment-selected backend.
struct backend_reset {
    ~backend_reset() {
        const std::string_view env = kernels::backend_override();
        kernels::force_backend(env.empty() ? "auto" : env);
    }
};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> out(n);
    for (std::uint64_t& w : out) w = rng();
    return out;
}

/// Independent in-test oracle: per-pair XOR+popcount, no kernels involved.
std::uint64_t pair_distance(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t from, std::size_t to) {
    std::uint64_t d = 0;
    for (std::size_t w = from; w < to; ++w) {
        d += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
    }
    return d;
}

// Ragged shapes: tails in every tile dimension (queries % 4, rows % 2,
// words % the 4-word AVX2 and 8-word AVX-512 steps) plus the degenerate
// 1-query/1-row cases. A single query is a block of one, so n_queries = 1
// here is the whole single-query search of every backend; 128 words is a
// D = 8192 row.
constexpr std::size_t kQueryCounts[] = {1, 2, 3, 4, 5, 7, 8, 17};
constexpr std::size_t kRowCounts[] = {1, 2, 3, 5, 33};
constexpr std::size_t kWordCounts[] = {1, 3, 7, 8, 9, 11, 19, 127, 128, 129};

TEST(BlockKernels, BlockExtendMatchesPairOracleOnEveryAdmissibleBackend) {
    backend_reset reset;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::uint64_t seed = 1;
        for (const std::size_t n_queries : kQueryCounts) {
            for (const std::size_t n_rows : kRowCounts) {
                for (const std::size_t words : kWordCounts) {
                    const auto queries = random_words(n_queries * words, ++seed);
                    const auto rows = random_words(n_rows * words, ++seed);
                    // Split the word range in two extends: the distances must
                    // accumulate exactly like the cascade uses them.
                    const std::size_t mid = words / 2;
                    std::vector<std::uint64_t> got(n_queries * n_rows, 7);
                    kernels::hamming_block_extend(queries.data(), words, n_queries,
                                                  rows.data(), words, 0, mid,
                                                  n_rows, got.data());
                    kernels::hamming_block_extend(queries.data(), words, n_queries,
                                                  rows.data(), words, mid, words,
                                                  n_rows, got.data());
                    // One window that starts past word 0 and stops short of
                    // the row end, against the pinned scalar reference.
                    const std::size_t hi = words - words / 3;
                    std::vector<std::uint64_t> window(n_queries * n_rows, 5);
                    std::vector<std::uint64_t> want_window(n_queries * n_rows, 5);
                    kernels::hamming_block_extend(queries.data(), words, n_queries,
                                                  rows.data(), words, mid, hi,
                                                  n_rows, window.data());
                    simd::hamming_block_extend_reference(
                        queries.data(), words, n_queries, rows.data(), words, mid,
                        hi, n_rows, want_window.data());
                    EXPECT_EQ(window, want_window)
                        << "backend=" << backend->name << " n_queries=" << n_queries
                        << " n_rows=" << n_rows << " words=" << words;
                    for (std::size_t q = 0; q < n_queries; ++q) {
                        for (std::size_t r = 0; r < n_rows; ++r) {
                            EXPECT_EQ(got[q * n_rows + r],
                                      7 + pair_distance(queries.data() + q * words,
                                                        rows.data() + r * words, 0,
                                                        words))
                                << "backend=" << backend->name << " q=" << q
                                << " r=" << r << " words=" << words;
                        }
                    }
                }
            }
        }
    }
}

TEST(BlockKernels, BlockArgmin2MatchesReferenceAndSingleQueryOnEveryAdmissibleBackend) {
    backend_reset reset;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::uint64_t seed = 100;
        for (const std::size_t n_queries : kQueryCounts) {
            for (const std::size_t n_rows : kRowCounts) {
                for (const std::size_t words : kWordCounts) {
                    // Prefix windows cover the cascade's stages: a short
                    // prefix, a mid one, and the full row.
                    for (const std::size_t prefix :
                         {std::size_t{1}, (words + 1) / 2, words}) {
                        const auto queries = random_words(n_queries * words, ++seed);
                        auto rows = random_words(n_rows * words, ++seed);
                        // Every other case repeats row 0 as the last row, so
                        // distance ties reach the argmin2 update.
                        if (n_rows > 1 && seed % 4 == 0) {
                            std::copy_n(rows.begin(), words,
                                        rows.end() - static_cast<std::ptrdiff_t>(words));
                        }
                        std::vector<kernels::argmin2_result> got(n_queries);
                        kernels::hamming_block_argmin2_prefix(
                            queries.data(), words, n_queries, rows.data(), words,
                            prefix, n_rows, got.data());
                        std::vector<kernels::argmin2_result> want(n_queries);
                        simd::hamming_block_argmin2_prefix_reference(
                            queries.data(), words, n_queries, rows.data(), words,
                            prefix, n_rows, want.data());
                        for (std::size_t q = 0; q < n_queries; ++q) {
                            // The same query alone (block of one) takes the
                            // backend's query-tail path, not the 4-query tile.
                            kernels::argmin2_result single{};
                            kernels::hamming_block_argmin2_prefix(
                                queries.data() + q * words, words, 1, rows.data(),
                                words, prefix, n_rows, &single);
                            for (const kernels::argmin2_result& r : {got[q], single}) {
                                EXPECT_EQ(r.index, want[q].index)
                                    << "backend=" << backend->name << " q=" << q
                                    << " n_rows=" << n_rows << " words=" << words
                                    << " prefix=" << prefix;
                                EXPECT_EQ(r.distance, want[q].distance);
                                EXPECT_EQ(r.runner_up, want[q].runner_up);
                            }
                            if (n_rows == 1) {
                                EXPECT_EQ(got[q].runner_up, ~std::uint64_t{0});
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(BlockKernels, TiedRowsResolveFirstWinsForEveryQueryTail) {
    backend_reset reset;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        for (const std::size_t n_queries : {1u, 2u, 3u, 4u, 5u, 6u}) {
            for (const std::size_t n_rows : {1u, 2u, 3u, 33u}) {
                for (const std::size_t words : {1u, 9u, 129u}) {
                    const auto query_block = random_words(n_queries * words, 42);
                    // All-identical rows: every distance ties, so index must
                    // be 0 and the runner-up must equal the winner (all-ones
                    // for a single-row memory).
                    std::vector<std::uint64_t> rows(n_rows * words);
                    const auto one_row = random_words(words, 43);
                    for (std::size_t r = 0; r < n_rows; ++r) {
                        std::copy(one_row.begin(), one_row.end(),
                                  rows.begin() + static_cast<std::ptrdiff_t>(r * words));
                    }
                    std::vector<kernels::argmin2_result> got(n_queries);
                    kernels::hamming_block_argmin2_prefix(
                        query_block.data(), words, n_queries, rows.data(), words,
                        words, n_rows, got.data());
                    for (std::size_t q = 0; q < n_queries; ++q) {
                        EXPECT_EQ(got[q].index, 0u) << "backend=" << backend->name;
                        EXPECT_EQ(got[q].runner_up,
                                  n_rows == 1 ? ~std::uint64_t{0} : got[q].distance);
                    }
                    if (n_rows < 3) continue;
                    // The exact match of query 0 stored at rows 1 and
                    // n_rows - 1: the lower index wins at distance 0.
                    std::copy_n(query_block.begin(), words,
                                rows.begin() + static_cast<std::ptrdiff_t>(words));
                    std::copy_n(query_block.begin(), words,
                                rows.end() - static_cast<std::ptrdiff_t>(words));
                    kernels::hamming_block_argmin2_prefix(
                        query_block.data(), words, n_queries, rows.data(), words,
                        words, n_rows, got.data());
                    EXPECT_EQ(got[0].index, 1u) << "backend=" << backend->name;
                    EXPECT_EQ(got[0].distance, 0u);
                    EXPECT_EQ(got[0].runner_up, 0u);
                }
            }
        }
    }
}

// --- block read paths -----------------------------------------------------

core::uhd_encoder make_encoder(const data::dataset& set, std::size_t dim) {
    core::uhd_config cfg;
    cfg.dim = dim;
    return core::uhd_encoder(cfg, set.shape());
}

TEST(BlockReadPaths, NearestBlockBitIdenticalToNearest) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(80, 31);
    const auto test = data::make_synthetic_digits(37, 32); // odd count: ragged
    const auto enc = make_encoder(train, 512);
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);
    const class_memory& mem = clf.packed_class_memory();
    const std::size_t words = mem.words_per_class();

    // Pack the whole test set into one contiguous query block.
    std::vector<std::uint64_t> packed(test.size() * words);
    std::vector<std::int32_t> encoded(enc.dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        enc.encode(test.image(i), encoded);
        kernels::sign_binarize(encoded.data(), encoded.size(),
                               packed.data() + i * words);
    }
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::vector<std::size_t> got(test.size());
        std::vector<std::uint64_t> got_distances(test.size());
        mem.nearest_block(packed, test.size(), got, got_distances.data());
        for (std::size_t i = 0; i < test.size(); ++i) {
            std::uint64_t want_distance = 0;
            const std::size_t want = mem.nearest(
                std::span<const std::uint64_t>(packed.data() + i * words, words),
                &want_distance);
            EXPECT_EQ(got[i], want) << "backend=" << backend->name << " i=" << i;
            EXPECT_EQ(got_distances[i], want_distance);
        }
    }
}

TEST(BlockReadPaths, AnswerBlockBitIdenticalToAnswerIncludingStats) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(120, 33);
    const auto test = data::make_synthetic_digits(41, 34);
    const auto enc = make_encoder(train, 2048); // deep enough for a real ladder
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);
    const class_memory& mem = clf.packed_class_memory();
    const std::size_t words = mem.words_per_class();
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.9);

    std::vector<std::uint64_t> packed(test.size() * words);
    std::vector<std::int32_t> encoded(enc.dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        enc.encode(test.image(i), encoded);
        kernels::sign_binarize(encoded.data(), encoded.size(),
                               packed.data() + i * words);
    }
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::vector<std::size_t> got(test.size());
        std::vector<dynamic_query_stats> got_stats(test.size());
        policy.answer_block(mem, packed, test.size(), got, got_stats);
        bool any_early = false;
        for (std::size_t i = 0; i < test.size(); ++i) {
            dynamic_query_stats want_stats;
            const std::size_t want = policy.answer(
                mem,
                std::span<const std::uint64_t>(packed.data() + i * words, words),
                &want_stats);
            EXPECT_EQ(got[i], want) << "backend=" << backend->name << " i=" << i;
            EXPECT_EQ(got_stats[i].exit_stage, want_stats.exit_stage);
            EXPECT_EQ(got_stats[i].window_words, want_stats.window_words);
            EXPECT_EQ(got_stats[i].words_scanned, want_stats.words_scanned);
            if (got_stats[i].exit_stage + 1 < policy.stages().size()) {
                any_early = true;
            }
        }
        // The calibrated ladder must actually exercise the compaction path
        // (mixed exits), or this test would only cover the all-survive case.
        EXPECT_TRUE(any_early) << "calibration produced no early exits";
    }
}

TEST(BlockReadPaths, PredictBlockMatchesPredictEncodedInBothModes) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(80, 35);
    const auto test = data::make_synthetic_digits(23, 36);
    const auto enc = make_encoder(train, 512);
    for (const query_mode mode : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> clf(
            enc, train.num_classes(),
            mode == query_mode::integer ? train_mode::raw_sums
                                        : train_mode::binarized_images,
            mode);
        clf.fit(train);
        const inference_snapshot snap = clf.snapshot();
        std::vector<std::int32_t> block(test.size() * enc.dim());
        for (std::size_t i = 0; i < test.size(); ++i) {
            enc.encode(test.image(i),
                       std::span<std::int32_t>(block.data() + i * enc.dim(),
                                               enc.dim()));
        }
        std::vector<std::size_t> got(test.size());
        snap.predict_block(block, test.size(), got);
        for (std::size_t i = 0; i < test.size(); ++i) {
            EXPECT_EQ(got[i],
                      snap.predict_encoded(std::span<const std::int32_t>(
                          block.data() + i * enc.dim(), enc.dim())))
                << "mode=" << static_cast<int>(mode) << " i=" << i;
        }
    }
}

TEST(BlockReadPaths, PredictBatchAndEvaluateMatchPerImagePredict) {
    backend_reset reset;
    // 67 images: not a multiple of the 32-image block, so the ragged last
    // block of predict_batch is on the line; 2 pool threads split it again.
    const auto train = data::make_synthetic_digits(100, 37);
    const auto test = data::make_synthetic_digits(67, 38);
    const auto enc = make_encoder(train, 512);
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);

    std::vector<std::size_t> want(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        want[i] = clf.predict(test.image(i));
    }
    EXPECT_EQ(clf.predict_batch(test), want);
    thread_pool pool(2);
    EXPECT_EQ(clf.predict_batch(test, &pool), want);

    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (want[i] == test.label(i)) ++correct;
    }
    const double want_accuracy =
        static_cast<double>(correct) / static_cast<double>(test.size());
    EXPECT_EQ(clf.evaluate(test), want_accuracy);
    EXPECT_EQ(clf.evaluate(test, nullptr, &pool), want_accuracy);
}

// --- serve engine block drain ---------------------------------------------

TEST(BlockServe, EngineBlockDrainBitIdenticalUnderConcurrentPublishing) {
    const auto base = data::make_synthetic_digits(100, 91);
    const auto stream = data::make_synthetic_digits(120, 92);
    const auto test = data::make_synthetic_digits(40, 93);
    const auto enc = make_encoder(base, 512);
    hd_classifier<core::uhd_encoder> trainer(enc, 10);
    trainer.fit(base);
    serve::engine_options opts;
    opts.workers = 2;
    opts.max_batch = 8;
    serve::inference_engine engine(trainer.snapshot(), opts);

    std::vector<std::vector<std::int32_t>> pool_queries;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::vector<std::int32_t> q(enc.dim());
        enc.encode(test.image(i), q);
        pool_queries.push_back(std::move(q));
    }
    // Clients hammer the block drain while the trainer publishes snapshots;
    // every answer must be a valid class (the bit-identity against the final
    // state is checked quiesced below).
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t q = 0; q < 100; ++q) {
                ASSERT_LT(engine.predict(pool_queries[(c + q) % pool_queries.size()]),
                          10u);
            }
        });
    }
    std::thread trainer_thread([&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            trainer.partial_fit(stream.image(i), stream.label(i));
            if (i % 15 == 14) engine.publish(trainer.snapshot());
        }
        engine.publish(trainer.snapshot());
    });
    for (auto& t : clients) t.join();
    trainer_thread.join();

    for (const auto& q : pool_queries) {
        EXPECT_EQ(engine.predict(q), trainer.predict_encoded(q));
    }
    engine.stop();
    const serve::serve_stats stats = engine.stats();
    // Binarized mode: every drained batch is answered with exactly one
    // block-kernel call, so utilization is the average micro-batch size.
    EXPECT_EQ(stats.kernel_calls, stats.batches);
    EXPECT_GE(stats.block_utilization(), 1.0);
    EXPECT_LE(stats.block_utilization(),
              static_cast<double>(stats.max_batch_observed));
}

TEST(BlockServe, DynamicEngineBlockDrainMatchesDirectCascade) {
    const auto train = data::make_synthetic_digits(100, 94);
    const auto test = data::make_synthetic_digits(30, 95);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    serve::engine_options opts;
    opts.workers = 2;
    opts.max_batch = 8;
    serve::inference_engine engine(clf.snapshot(), policy, opts);
    // Saturate the queue so real multi-request batches form, then compare
    // every answer with the direct single-query cascade.
    std::vector<std::future<std::size_t>> futures;
    std::vector<std::vector<std::int32_t>> queries;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::vector<std::int32_t> q(enc.dim());
        enc.encode(test.image(i), q);
        queries.push_back(q);
        futures.push_back(engine.submit(std::move(q)));
    }
    for (std::size_t i = 0; i < test.size(); ++i) {
        EXPECT_EQ(futures[i].get(),
                  clf.predict_dynamic_encoded(queries[i], policy));
    }
    engine.stop();
    EXPECT_EQ(engine.stats().kernel_calls, engine.stats().batches);
}

} // namespace
