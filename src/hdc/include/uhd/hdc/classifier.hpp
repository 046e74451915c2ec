// Centroid HDC classifier shared by the baseline and uHD pipelines.
//
// Training (paper Fig. 1(b) / Fig. 5): every training image is encoded and
// bundled into its class accumulator, then each class accumulator is
// binarized with the sign function into a class hypervector. This is
// single-pass — no epochs — which is the property uHD exploits for
// train-on-edge. Inference: encode the test image, binarize, and pick the
// class with the highest cosine similarity.
//
// Two accumulation modes are provided (bench_ablation_binarize):
// * binarized_images — each image is binarized first (what the Fig. 5
//   hardware datapath emits), then the +-1 image hypervectors are bundled.
// * raw_sums — the integer pixel-bundles are added directly (the software
//   formulation Sigma L_i of Section III).
//
// An optional perceptron-style retraining pass (AdaptHD-like, the "w/
// retrain" rows of Fig. 6(b)) is provided as an extension.
//
// Train/serve split: the classifier owns two kinds of state.
// * Training state — the integer class accumulators (class_acc_), mutated
//   by fit/partial_fit/retrain and never read by inference.
// * Read state — an hdc::inference_snapshot (packed class memory, integer
//   class rows + cached norms, metadata) that finalize() re-derives from
//   the accumulators. Every predict* path delegates to it, so the
//   classifier answers queries exactly like a snapshot() copy would, and
//   snapshot() copies are what the serve layer publishes to concurrent
//   readers (serve::inference_engine) — one writer finalizes and
//   publishes, readers never touch classifier internals.
//
// Inference runs on the packed associative-memory engine: binarized-mode
// queries are sign-binarized word-parallel (kernels::sign_binarize) and
// answered by a Hamming-argmin scan over the contiguous packed class
// memory — bit-identical to the per-class cosine argmax it replaced
// (cosine is strictly decreasing in Hamming distance for fixed D, ties
// first-wins in both). Integer-mode queries use the blocked dot-product
// kernels against the snapshot's integer class rows with norms cached at
// finalization.
//
// Training scales two ways beyond the sequential fit() loop:
// * fit_parallel — the mini-batch thread-parallel engine (hdc/trainer.hpp):
//   per-worker class accumulators filled from class histograms (raw_sums
//   over a stored bank) or through the encoder's batch path, and reduced
//   in fixed class/lane order, bit-identical to fit() for any thread
//   count.
// * retrain(train, epochs, pool) — mini-batch parallel perceptron epochs
//   (binarized mode; bit-identical to the sequential retrain).
// Inference scales down as well as out: predict_dynamic answers queries
// through the dynamic-dimension early-exit cascade (hdc/dynamic_query.hpp),
// reading only a calibrated prefix of each packed class row on easy
// queries and escalating to the full D otherwise.
//
// The Encoder type must provide:
//   std::size_t dim() const;
//   void encode(std::span<const std::uint8_t>, std::span<std::int32_t>) const;
#ifndef UHD_HDC_CLASSIFIER_HPP
#define UHD_HDC_CLASSIFIER_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/data/metrics.hpp"
#include "uhd/hdc/accumulator.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp" // query_mode + the read-state type
#include "uhd/hdc/similarity.hpp"
#include "uhd/hdc/trainer.hpp" // train_mode + the mini-batch parallel engine

namespace uhd::hdc {

/// Single-pass centroid classifier over any pixel encoder.
template <typename Encoder>
class hd_classifier {
public:
    hd_classifier(const Encoder& encoder, std::size_t classes,
                  train_mode mode = train_mode::binarized_images,
                  query_mode inference = query_mode::binarized)
        : encoder_(&encoder), classes_(classes), mode_(mode),
          state_(inference, classes, encoder.dim()) {
        UHD_REQUIRE(classes >= 2, "need at least two classes");
        class_acc_.assign(classes_, accumulator(encoder.dim()));
        class_hv_.assign(classes_, hypervector(encoder.dim()));
    }

    [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
    [[nodiscard]] train_mode mode() const noexcept { return mode_; }
    [[nodiscard]] query_mode inference() const noexcept { return state_.mode(); }
    [[nodiscard]] const Encoder& encoder() const noexcept { return *encoder_; }

    /// Re-point this classifier at `encoder` (same geometry). For owners
    /// that hold the encoder AND the classifier as members (uhd_model):
    /// the classifier stores a non-owning pointer, so a move/copy of the
    /// owner must rebind it to the owner's new encoder instance or it
    /// silently keeps referencing the old (possibly destroyed) one.
    void rebind_encoder(const Encoder& encoder) noexcept {
        encoder_ = &encoder;
    }

    /// Single-pass training over the dataset (labels must be < classes()).
    /// This is the sequential per-image loop — the oracle fit_parallel is
    /// tested against.
    void fit(const data::dataset& train) {
        UHD_REQUIRE(train.num_classes() <= classes_, "dataset has too many classes");
        std::vector<std::int32_t> scratch(encoder_->dim());
        for (std::size_t i = 0; i < train.size(); ++i) {
            encoder_->encode(train.image(i), scratch);
            bundle_into(train.label(i), scratch);
        }
        finalize();
    }

    /// Mini-batch thread-parallel fit (the batch training engine): the set
    /// is split into one contiguous chunk per pool lane, each chunk bundled
    /// into private per-class accumulators (from class histograms in
    /// raw_sums mode over a stored bank, else through the encoder's batch
    /// path), and the lane sets reduced in fixed class/lane order. The
    /// trained state is bit-identical to fit() for every thread count and
    /// batch size — the same determinism contract as predict_batch.
    void fit_parallel(const data::dataset& train, thread_pool* pool = nullptr,
                      trainer_options options = {}) {
        UHD_REQUIRE(train.num_classes() <= classes_, "dataset has too many classes");
        const batch_trainer<Encoder> trainer(*encoder_, classes_, mode_, options);
        const std::vector<accumulator> delta = trainer.accumulate(train, pool);
        for (std::size_t c = 0; c < classes_; ++c) class_acc_[c].add(delta[c]);
        finalize();
    }

    /// Incrementally add one labeled example (dynamic/online training).
    /// Only the touched class is re-finalized, so an online update costs
    /// O(D) rather than O(classes * D); the encode scratch is a reused
    /// per-instance buffer, so steady-state updates are allocation-free.
    void partial_fit(std::span<const std::uint8_t> image, std::size_t label) {
        UHD_REQUIRE(label < classes_, "label out of range");
        partial_scratch_.resize(encoder_->dim());
        encoder_->encode(image, partial_scratch_);
        bundle_into(label, partial_scratch_);
        finalize_class(label);
    }

    /// Predict the class of one image.
    [[nodiscard]] std::size_t predict(std::span<const std::uint8_t> image) const {
        // Reused per thread: predict_batch calls this once per image from
        // every pool worker, so per-call allocation would dominate.
        static thread_local std::vector<std::int32_t> scratch;
        scratch.resize(encoder_->dim());
        encoder_->encode(image, scratch);
        return predict_encoded(scratch);
    }

    /// Predict from an already-encoded accumulator (shared by predict and
    /// retrain so each image is encoded exactly once). Delegates to the
    /// read-state snapshot: binarized mode = word-parallel sign-binarize +
    /// Hamming-argmin over the packed class memory, integer mode = blocked
    /// dot products against the integer class rows with cached norms
    /// (cosine argmax, first-wins).
    [[nodiscard]] std::size_t predict_encoded(
        std::span<const std::int32_t> encoded) const {
        UHD_REQUIRE(encoded.size() == encoder_->dim(), "encoded size mismatch");
        return state_.predict_encoded(encoded);
    }

    /// Dynamic-dimension inference from an already-encoded accumulator: the
    /// query is sign-binarized and answered through the early-exit cascade
    /// over the packed class memory. The cascade always answers from the
    /// associative memory (the binarized engine), regardless of the
    /// configured query_mode; its full-D stage is bit-identical to
    /// binarized-mode predict_encoded().
    [[nodiscard]] std::size_t predict_dynamic_encoded(
        std::span<const std::int32_t> encoded, const dynamic_query_policy& policy,
        dynamic_query_stats* stats = nullptr) const {
        UHD_REQUIRE(encoded.size() == encoder_->dim(), "encoded size mismatch");
        return state_.predict_dynamic_encoded(encoded, policy, stats);
    }

    /// Dynamic-dimension inference on one image (encode + cascade).
    [[nodiscard]] std::size_t predict_dynamic(
        std::span<const std::uint8_t> image, const dynamic_query_policy& policy,
        dynamic_query_stats* stats = nullptr) const {
        static thread_local std::vector<std::int32_t> scratch;
        scratch.resize(encoder_->dim());
        encoder_->encode(image, scratch);
        return predict_dynamic_encoded(scratch, policy, stats);
    }

    /// Calibrate an early-exit policy for this model's class memory on a
    /// held-out dataset: each image is encoded (through the encoder's batch
    /// path when it has one) and sign-binarized (pool-parallel when given —
    /// every query fills its own slot, so the packed calibration buffer is
    /// bit-identical for any thread count), then the per-stage margin
    /// thresholds are picked for `target_agreement` with the full-D answer
    /// (dynamic_query_policy::calibrate).
    [[nodiscard]] dynamic_query_policy calibrate_dynamic(
        const data::dataset& holdout, double target_agreement,
        thread_pool* pool = nullptr) const {
        const std::size_t dim = encoder_->dim();
        const std::size_t words = kernels::sign_words(dim);
        std::vector<std::uint64_t> packed(holdout.size() * words);
        thread_pool::maybe_parallel_for(
            pool, holdout.size(), [&](std::size_t begin, std::size_t end) {
                std::vector<std::int32_t> encoded(
                    std::min(predict_block_images, end - begin) * dim);
                for (std::size_t b = begin; b < end; b += predict_block_images) {
                    const std::size_t count = std::min(predict_block_images, end - b);
                    encode_block(holdout, b, count, encoded);
                    for (std::size_t i = 0; i < count; ++i) {
                        kernels::sign_binarize(encoded.data() + i * dim, dim,
                                               packed.data() + (b + i) * words);
                    }
                }
            });
        return dynamic_query_policy::calibrate(state_, packed, holdout.size(),
                                               target_agreement);
    }

    /// Images per encoded block drained through the snapshot's query-GEMM
    /// path by predict_batch — sized to the serve engine's default
    /// micro-batch (engine_options::max_batch).
    static constexpr std::size_t predict_block_images = 32;

    /// Predict every image of a dataset into `out` (one label slot per
    /// image). Each worker encodes contiguous blocks of
    /// predict_block_images images (one encode_batch call per block when
    /// the encoder has a batch path) and answers every block with one
    /// register-blocked kernel call (inference_snapshot::predict_block), so
    /// each packed class row is streamed once per query tile instead of
    /// once per image. With a pool, the batch is split into contiguous
    /// chunks across its workers; every image's prediction is independent
    /// and written to its own slot, and the block path is bit-identical to
    /// predict() per image — the result is the same for every thread count
    /// and block size.
    void predict_batch(const data::dataset& set, std::span<std::size_t> out,
                       thread_pool* pool = nullptr) const {
        UHD_REQUIRE(out.size() == set.size(), "prediction buffer size mismatch");
        const std::size_t dim = encoder_->dim();
        thread_pool::maybe_parallel_for(
            pool, set.size(), [&](std::size_t begin, std::size_t end) {
                std::vector<std::int32_t> encoded(
                    std::min(predict_block_images, end - begin) * dim);
                for (std::size_t b = begin; b < end; b += predict_block_images) {
                    const std::size_t count =
                        std::min(predict_block_images, end - b);
                    encode_block(set, b, count, encoded);
                    state_.predict_block({encoded.data(), count * dim}, count,
                                         out.subspan(b, count));
                }
            });
    }

    /// Convenience overload returning the predictions.
    [[nodiscard]] std::vector<std::size_t> predict_batch(
        const data::dataset& set, thread_pool* pool = nullptr) const {
        std::vector<std::size_t> out(set.size());
        predict_batch(set, out, pool);
        return out;
    }

    /// Accuracy over a dataset; optionally fills a confusion matrix. The
    /// predictions run through predict_batch (pool-parallel when given);
    /// the matrix and the accuracy are reduced in sample order afterwards,
    /// so the result does not depend on the thread count.
    [[nodiscard]] double evaluate(const data::dataset& test,
                                  data::confusion_matrix* matrix = nullptr,
                                  thread_pool* pool = nullptr) const {
        UHD_REQUIRE(!test.empty(), "evaluate on empty dataset");
        std::vector<std::size_t> predicted(test.size());
        predict_batch(test, predicted, pool);
        std::size_t correct = 0;
        for (std::size_t i = 0; i < test.size(); ++i) {
            if (matrix != nullptr) matrix->record(test.label(i), predicted[i]);
            if (predicted[i] == test.label(i)) ++correct;
        }
        return static_cast<double>(correct) / static_cast<double>(test.size());
    }

    /// AdaptHD-style retraining extension: misclassified samples are added
    /// to their true class and subtracted from the predicted class.
    /// Returns the number of updates in the final epoch.
    std::size_t retrain(const data::dataset& train, std::size_t epochs) {
        std::vector<std::int32_t> scratch(encoder_->dim());
        std::size_t last_epoch_updates = 0;
        for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
            last_epoch_updates = 0;
            for (std::size_t i = 0; i < train.size(); ++i) {
                const std::size_t truth = train.label(i);
                // Encode once and predict from the accumulator — the seed
                // path encoded every misclassified image a second time.
                encoder_->encode(train.image(i), scratch);
                const std::size_t predicted = predict_encoded(scratch);
                if (predicted == truth) continue;
                class_acc_[truth].add_values(scratch);
                class_acc_[predicted].subtract_values(scratch);
                // Integer-mode predictions compare against the live
                // accumulators, so the snapshot's integer rows (and their
                // cached norms) must follow each update; binarized class
                // vectors refresh at epoch end.
                if (inference() == query_mode::integer) {
                    state_.store_class_values(truth, class_acc_[truth].values());
                    state_.store_class_values(predicted,
                                              class_acc_[predicted].values());
                }
                ++last_epoch_updates;
            }
            finalize();
            if (last_epoch_updates == 0) break;
        }
        return last_epoch_updates;
    }

    /// Mini-batch thread-parallel retraining. Binarized query mode predicts
    /// against the packed class memory, which within an epoch is frozen at
    /// its epoch-start state (finalize() refreshes it only between epochs)
    /// — so each mini-batch is encoded and predicted pool-parallel against
    /// that snapshot, and the accumulator updates are applied in sample
    /// order afterwards. Bit-identical to the sequential retrain() for
    /// every thread count and batch size (tested). Integer query mode
    /// compares against the *live* accumulators after every update, which
    /// is inherently sequential: it falls through to retrain().
    std::size_t retrain(const data::dataset& train, std::size_t epochs,
                        thread_pool* pool, std::size_t batch_images = 256) {
        if (pool == nullptr || inference() == query_mode::integer) {
            return retrain(train, epochs);
        }
        if (batch_images == 0) batch_images = 1;
        const std::size_t dim = encoder_->dim();
        std::vector<std::int32_t> encoded(std::min(batch_images, train.size()) * dim);
        std::vector<std::size_t> predicted(std::min(batch_images, train.size()));
        std::size_t last_epoch_updates = 0;
        for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
            last_epoch_updates = 0;
            for (std::size_t b = 0; b < train.size(); b += batch_images) {
                const std::size_t count = std::min(batch_images, train.size() - b);
                // Encode + predict fused, one parallel pass per mini-batch;
                // each image writes only its own slots.
                thread_pool::maybe_parallel_for(
                    pool, count, [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                            const std::span<std::int32_t> slot(
                                encoded.data() + i * dim, dim);
                            encoder_->encode(train.image(b + i), slot);
                            predicted[i] = predict_encoded(slot);
                        }
                    });
                for (std::size_t i = 0; i < count; ++i) {
                    const std::size_t truth = train.label(b + i);
                    if (predicted[i] == truth) continue;
                    const std::span<const std::int32_t> slot(
                        encoded.data() + i * dim, dim);
                    class_acc_[truth].add_values(slot);
                    class_acc_[predicted[i]].subtract_values(slot);
                    ++last_epoch_updates;
                }
            }
            finalize();
            if (last_epoch_updates == 0) break;
        }
        return last_epoch_updates;
    }

    /// Binarized class hypervector for class `c`.
    [[nodiscard]] const hypervector& class_hypervector(std::size_t c) const {
        UHD_REQUIRE(c < classes_, "class index out of range");
        return class_hv_[c];
    }

    /// Integer class accumulator for class `c` (pre-binarization).
    [[nodiscard]] const accumulator& class_accumulator(std::size_t c) const {
        UHD_REQUIRE(c < classes_, "class index out of range");
        return class_acc_[c];
    }

    /// Packed associative memory over the binarized class vectors (the
    /// read-state snapshot's class store).
    [[nodiscard]] const class_memory& packed_class_memory() const noexcept {
        return state_.memory();
    }

    /// Immutable copy of the current read state. The copy is independent:
    /// later fit/partial_fit/retrain calls never affect it, so it can be
    /// handed to concurrent readers (serve::inference_engine::publish) while
    /// this classifier keeps training. Its version() is the classifier's
    /// mutation count — strictly larger in any later snapshot whose state
    /// changed.
    [[nodiscard]] inference_snapshot snapshot() const { return state_; }

    /// Restore class accumulators (deserialization support); class
    /// hypervectors are re-derived by binarization.
    void load_state(std::vector<accumulator> accumulators) {
        UHD_REQUIRE(accumulators.size() == classes_, "class count mismatch");
        for (const auto& acc : accumulators) {
            UHD_REQUIRE(acc.dim() == encoder_->dim(), "accumulator dimension mismatch");
        }
        class_acc_ = std::move(accumulators);
        finalize();
    }

    /// Heap footprint of the model (class accumulators + hypervectors +
    /// the read-state snapshot).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        std::size_t bytes = state_.memory_bytes();
        for (const auto& a : class_acc_) bytes += a.memory_bytes();
        for (const auto& v : class_hv_) bytes += v.memory_bytes();
        return bytes;
    }

private:
    /// Encode images [begin, begin + count) of `set` into the first
    /// count * dim() values of `out`: one encode_batch call when the encoder
    /// has a batch path (the image-blocked kernel), per image otherwise.
    void encode_block(const data::dataset& set, std::size_t begin, std::size_t count,
                      std::span<std::int32_t> out) const {
        const std::size_t dim = encoder_->dim();
        if constexpr (batch_encoder<Encoder>) {
            encoder_->encode_batch(set.images(begin, count), count,
                                   out.first(count * dim), nullptr);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                encoder_->encode(set.image(begin + i), out.subspan(i * dim, dim));
            }
        }
    }

    void bundle_into(std::size_t label, std::span<const std::int32_t> encoded) {
        if (mode_ == train_mode::raw_sums) {
            class_acc_[label].add_values(encoded);
            return;
        }
        // Binarize the image hypervector first (hardware semantics); the
        // kernel zeroes the tail bits, so the packed words satisfy the
        // add_sign_words contract directly — no bitstream materialized.
        sign_scratch_.resize(kernels::sign_words(encoder_->dim()));
        kernels::sign_binarize(encoded.data(), encoded.size(), sign_scratch_.data());
        class_acc_[label].add_sign_words(sign_scratch_);
    }

    /// Re-derive one class of the read state from its accumulator: the
    /// binarized vector, the packed row, and (integer mode) the integer row
    /// with its cached norm.
    void finalize_class(std::size_t c) {
        class_hv_[c] = class_acc_[c].sign();
        state_.store_class_row(c, class_hv_[c]);
        state_.store_class_values(c, class_acc_[c].values());
    }

    void finalize() {
        for (std::size_t c = 0; c < classes_; ++c) finalize_class(c);
    }

    const Encoder* encoder_;
    std::size_t classes_;
    train_mode mode_;
    std::vector<accumulator> class_acc_; ///< training state (write path)
    std::vector<hypervector> class_hv_;
    inference_snapshot state_;           ///< read state (every predict path)
    // Reused scratch buffers for partial_fit / bundle_into: online updates
    // advertise O(D) cost, so they must not pay a heap allocation per call
    // in either train mode.
    std::vector<std::int32_t> partial_scratch_;
    std::vector<std::uint64_t> sign_scratch_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_CLASSIFIER_HPP
