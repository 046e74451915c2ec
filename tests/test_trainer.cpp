// Tests for the mini-batch parallel training engine: fit_parallel must be
// bit-identical to the sequential fit() for every thread count, batch size,
// chunking, and train_mode (class accumulators AND packed class rows), and
// the pool retrain overload must match the sequential retrain exactly.
// The class-histogram raw_sums path (stored bank) is held to the same
// per-image fit() oracle across banks, policies, levels, dimensions, pool
// sizes, empty and single-image classes, and u16 count flushes.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/trainer.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

template <typename Encoder>
void expect_identical_state(const hd_classifier<Encoder>& a,
                            const hd_classifier<Encoder>& b) {
    ASSERT_EQ(a.classes(), b.classes());
    for (std::size_t c = 0; c < a.classes(); ++c) {
        const auto va = a.class_accumulator(c).values();
        const auto vb = b.class_accumulator(c).values();
        ASSERT_EQ(va.size(), vb.size());
        for (std::size_t d = 0; d < va.size(); ++d) {
            ASSERT_EQ(va[d], vb[d]) << "class " << c << " dim " << d;
        }
        const auto ra = a.packed_class_memory().row(c);
        const auto rb = b.packed_class_memory().row(c);
        for (std::size_t w = 0; w < ra.size(); ++w) {
            ASSERT_EQ(ra[w], rb[w]) << "class " << c << " word " << w;
        }
    }
}

TEST(Trainer, FitParallelBitIdenticalAcrossThreadCountsAndModes) {
    const auto train = data::make_synthetic_digits(97, 5); // odd count: ragged chunks
    core::uhd_config cfg;
    cfg.dim = 200; // non-multiple-of-64 exercises the packed tail
    const core::uhd_encoder enc(cfg, train.shape());

    for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
        hd_classifier<core::uhd_encoder> sequential(enc, 10, tm);
        sequential.fit(train);

        // No pool (inline chunk) first, then 1, 2, 7 workers and hardware
        // concurrency (thread_pool(0)).
        {
            hd_classifier<core::uhd_encoder> clf(enc, 10, tm);
            clf.fit_parallel(train, nullptr);
            expect_identical_state(sequential, clf);
        }
        for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                          std::size_t{7}, std::size_t{0}}) {
            thread_pool pool(workers);
            hd_classifier<core::uhd_encoder> clf(enc, 10, tm);
            clf.fit_parallel(train, &pool);
            expect_identical_state(sequential, clf);
        }
    }
}

TEST(Trainer, FitParallelIndependentOfBatchSize) {
    const auto train = data::make_synthetic_digits(60, 6);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums);
    sequential.fit(train);

    thread_pool pool(3);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                    std::size_t{1000}}) {
        trainer_options options;
        options.batch_images = batch;
        hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums);
        clf.fit_parallel(train, &pool, options);
        expect_identical_state(sequential, clf);
    }
}

TEST(Trainer, FitParallelWorksForMinimalContractEncoders) {
    // baseline_encoder has no encode_batch: the trainer must fall back to
    // the per-image path and still match the sequential fit.
    const auto train = data::make_synthetic_digits(40, 7);
    baseline_config cfg;
    cfg.dim = 256;
    const baseline_encoder enc(cfg, train.shape());
    hd_classifier<baseline_encoder> sequential(enc, 10);
    sequential.fit(train);

    thread_pool pool(2);
    hd_classifier<baseline_encoder> clf(enc, 10);
    clf.fit_parallel(train, &pool);
    expect_identical_state(sequential, clf);
}

TEST(Trainer, FitParallelAccumulatesOntoExistingState) {
    // fit() bundles into whatever state exists; fit_parallel must do the
    // same so online (partial_fit) and batch training compose.
    const auto stream = data::make_synthetic_digits(20, 8);
    const auto batch = data::make_synthetic_digits(50, 9);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, stream.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10);
    hd_classifier<core::uhd_encoder> parallel(enc, 10);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        sequential.partial_fit(stream.image(i), stream.label(i));
        parallel.partial_fit(stream.image(i), stream.label(i));
    }
    sequential.fit(batch);
    thread_pool pool(3);
    parallel.fit_parallel(batch, &pool);
    expect_identical_state(sequential, parallel);
}

TEST(Trainer, BatchTrainerDeltaMatchesSequentialBundle) {
    // The trainer's accumulate() is a pure delta: summing it over an empty
    // model must equal fit() from scratch (both train modes).
    const auto train = data::make_synthetic_digits(33, 10);
    core::uhd_config cfg;
    cfg.dim = 192;
    const core::uhd_encoder enc(cfg, train.shape());
    for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
        hd_classifier<core::uhd_encoder> sequential(enc, 10, tm);
        sequential.fit(train);

        const batch_trainer<core::uhd_encoder> trainer(enc, 10, tm);
        thread_pool pool(4);
        const std::vector<accumulator> delta = trainer.accumulate(train, &pool);
        ASSERT_EQ(delta.size(), 10u);
        for (std::size_t c = 0; c < delta.size(); ++c) {
            const auto want = sequential.class_accumulator(c).values();
            const auto got = delta[c].values();
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t d = 0; d < want.size(); ++d) {
                ASSERT_EQ(want[d], got[d]) << "class " << c << " dim " << d;
            }
        }
    }
}

TEST(Trainer, EmptyDatasetIsANoOp) {
    const data::dataset empty(data::image_shape{8, 8, 1}, 10);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, empty.shape());
    thread_pool pool(2);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit_parallel(empty, &pool);
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        for (const std::int32_t v : clf.class_accumulator(c).values()) {
            ASSERT_EQ(v, 0);
        }
    }
}

TEST(Trainer, ParallelRetrainMatchesSequentialRetrain) {
    // Binarized query mode: within an epoch predictions run against the
    // epoch-start packed memory, so the mini-batch parallel retrain is
    // bit-identical to the sequential one — updates count included.
    const auto train = data::make_synthetic_digits(80, 11);
    core::uhd_config cfg;
    cfg.dim = 64; // small D so some images stay misclassified
    const core::uhd_encoder enc(cfg, train.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums,
                                                query_mode::binarized);
    sequential.fit(train);
    hd_classifier<core::uhd_encoder> parallel(enc, 10, train_mode::raw_sums,
                                              query_mode::binarized);
    parallel.fit(train);

    const std::size_t updates_seq = sequential.retrain(train, 2);
    thread_pool pool(3);
    const std::size_t updates_par = parallel.retrain(train, 2, &pool, 17);
    EXPECT_EQ(updates_seq, updates_par);
    expect_identical_state(sequential, parallel);
}

TEST(Trainer, IntegerModeParallelRetrainFallsBackToSequential) {
    const auto train = data::make_synthetic_digits(50, 12);
    core::uhd_config cfg;
    cfg.dim = 64;
    const core::uhd_encoder enc(cfg, train.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums,
                                                query_mode::integer);
    sequential.fit(train);
    hd_classifier<core::uhd_encoder> pooled(enc, 10, train_mode::raw_sums,
                                            query_mode::integer);
    pooled.fit(train);

    thread_pool pool(2);
    const std::size_t updates_seq = sequential.retrain(train, 1);
    const std::size_t updates_par = pooled.retrain(train, 1, &pool);
    EXPECT_EQ(updates_seq, updates_par);
    expect_identical_state(sequential, pooled);
}

/// `per_class` images of each class 0..full_classes-1 in label order
/// (so every lane of a split sees at most two classes), then one image of
/// class full_classes; classes above it get none. Random intensities.
data::dataset clustered_set(data::image_shape shape, std::size_t classes,
                            std::size_t full_classes, std::size_t per_class,
                            std::uint64_t seed) {
    data::dataset set(shape, classes);
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> img(shape.values());
    const auto add = [&](std::size_t label) {
        for (auto& v : img) v = static_cast<std::uint8_t>(rng());
        set.add(img, label);
    };
    for (std::size_t c = 0; c < full_classes; ++c) {
        for (std::size_t i = 0; i < per_class; ++i) add(c);
    }
    add(full_classes);
    return set;
}

/// True when every lane of an n-image split over `lanes` lanes (the
/// trainer's contiguous partition) takes the class-histogram path.
template <typename Encoder>
bool all_lanes_use_histograms(const batch_trainer<Encoder>& trainer,
                              const data::dataset& set, std::size_t lanes) {
    const std::size_t n = set.size();
    const std::size_t base = n / lanes;
    const std::size_t extra = n % lanes;
    for (std::size_t c = 0; c < lanes; ++c) {
        const std::size_t begin = c * base + (c < extra ? c : extra);
        const std::size_t end = begin + base + (c < extra ? 1 : 0);
        if (!trainer.uses_class_histograms(set, begin, end)) return false;
    }
    return true;
}

TEST(Trainer, ClassHistogramsMatchFitAcrossLevelsAndDimensions) {
    // D = 64 is the encoder's smallest dimension; 65 and 200 leave ragged
    // vectors and a ragged packed tail; levels 2 and 16 take the wide
    // backends' byte shuffle, 17 and 256 the gather.
    const data::image_shape shape{8, 8, 1};
    const auto train = clustered_set(shape, 10, 8, 24, 21);
    for (const unsigned levels : {2u, 16u, 17u, 256u}) {
        for (const std::size_t dim : {64u, 65u, 200u, 1024u}) {
            core::uhd_config cfg;
            cfg.dim = dim;
            cfg.quant_levels = levels;
            const core::uhd_encoder enc(cfg, shape);
            hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums);
            sequential.fit(train);

            const batch_trainer<core::uhd_encoder> trainer(enc, 10, train_mode::raw_sums);
            ASSERT_TRUE(all_lanes_use_histograms(trainer, train, 3));
            thread_pool pool(2);
            hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums);
            clf.fit_parallel(train, &pool);
            SCOPED_TRACE("levels " + std::to_string(levels) + " dim " + std::to_string(dim));
            expect_identical_state(sequential, clf);
        }
    }
}

TEST(Trainer, ClassHistogramsMatchFitAcrossBanksPoliciesAndPools) {
    // The remat bank has no stored panels and keeps the per-image path; it
    // must still match. Class 8 holds one image and class 9 none.
    const data::image_shape shape{8, 8, 1};
    const auto train = clustered_set(shape, 10, 8, 24, 22);
    for (const uhd::bank_mode bank : {uhd::bank_mode::stored, uhd::bank_mode::rematerialize}) {
        for (const core::binarize_policy policy :
             {core::binarize_policy::half_inputs, core::binarize_policy::mean_intensity}) {
            core::uhd_config cfg;
            cfg.dim = 200;
            cfg.bank = bank;
            cfg.policy = policy;
            const core::uhd_encoder enc(cfg, shape);
            hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums);
            sequential.fit(train);
            const batch_trainer<core::uhd_encoder> trainer(enc, 10, train_mode::raw_sums);
            EXPECT_EQ(all_lanes_use_histograms(trainer, train, 8),
                      bank == uhd::bank_mode::stored);

            {
                hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums);
                clf.fit_parallel(train, nullptr);
                expect_identical_state(sequential, clf);
            }
            for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
                thread_pool pool(workers);
                hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums);
                clf.fit_parallel(train, &pool);
                expect_identical_state(sequential, clf);
            }
        }
    }
}

TEST(Trainer, ClassHistogramsFlushBeforeU16Overflow) {
    // 70000 images of class 0 in one lane: the u16 counts must be flushed
    // before they wrap. Tiny 1x2-pixel images keep the fit() oracle cheap.
    const data::image_shape shape{1, 2, 1};
    const auto train = clustered_set(shape, 3, 1, 70000, 23);
    for (const unsigned levels : {2u, 16u}) {
        core::uhd_config cfg;
        cfg.dim = 65;
        cfg.quant_levels = levels;
        const core::uhd_encoder enc(cfg, shape);
        hd_classifier<core::uhd_encoder> sequential(enc, 3, train_mode::raw_sums);
        sequential.fit(train);
        const batch_trainer<core::uhd_encoder> trainer(enc, 3, train_mode::raw_sums);
        ASSERT_TRUE(trainer.uses_class_histograms(train, 0, train.size()));
        hd_classifier<core::uhd_encoder> clf(enc, 3, train_mode::raw_sums);
        clf.fit_parallel(train, nullptr);
        expect_identical_state(sequential, clf);
    }
}

TEST(Trainer, ClassHistogramsOnlyForRawSumsOnStoredBanks) {
    const data::image_shape shape{8, 8, 1};
    const auto train = clustered_set(shape, 10, 8, 24, 24);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, shape);
    EXPECT_TRUE(batch_trainer<core::uhd_encoder>(enc, 10, train_mode::raw_sums)
                    .uses_class_histograms(train, 0, train.size()));
    EXPECT_FALSE(batch_trainer<core::uhd_encoder>(enc, 10, train_mode::binarized_images)
                     .uses_class_histograms(train, 0, train.size()));
    // Below the images-per-class crossover a lane encodes per image.
    EXPECT_FALSE(batch_trainer<core::uhd_encoder>(enc, 10, train_mode::raw_sums)
                     .uses_class_histograms(train, 0, 4));
    baseline_config bcfg;
    bcfg.dim = 128;
    const baseline_encoder benc(bcfg, shape);
    EXPECT_FALSE(batch_trainer<baseline_encoder>(benc, 10, train_mode::raw_sums)
                     .uses_class_histograms(train, 0, train.size()));
}

} // namespace
