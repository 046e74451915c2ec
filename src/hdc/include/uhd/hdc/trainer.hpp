// Mini-batch thread-parallel training engine for the centroid classifier.
//
// Single-pass HDC training is a bundling reduction: every image's encoding
// is added into its class accumulator. Because the bundle is an integer sum
// (raw_sums adds the int32 encodings, binarized_images adds their +-1 sign
// vectors), the reduction is associative and commutative — so the training
// set can be split into contiguous per-worker chunks, each chunk bundled
// into its own private class-accumulator set, and the lane sets reduced in
// fixed class/lane order at the end. The result is bit-identical to the
// sequential per-image loop for every thread count, chunking, and
// mini-batch size: the same determinism contract as predict_batch.
//
// Within a chunk, raw_sums over a stored threshold bank needs no per-image
// encoding at all: a sum of thermometer codes is a cumulative histogram, so
// class c's bundle is exactly 2 * sum_p H_c,p[S_p[d]] - sum_i tau2_i, where
// H_c,p[t] counts the class's images whose pixel p quantizes to >= t and
// tau2_i is image i's doubled binarization threshold. The lane quantizes
// each image once (uhd_encoder::count_image bumps counts[class][p][level]
// and returns tau2), makes the u16 counts cumulative, and reads each bank
// panel once for all its classes (kernels::count_table_accumulate) —
// one table read per (class, pixel, dimension) instead of one compare per
// (image, pixel, dimension). Everywhere the identity does not apply or does
// not pay — binarized_images (sign() is not linear), encoders without a
// stored bank, lanes below histogram_min_images_per_class — images are
// encoded in mini-batches through the encoder's batch engine when it has
// one (uhd_encoder::encode_batch over the dataset's contiguous image
// buffer), falling back to per-image encode() for encoders that only
// satisfy the minimal contract (dim() + encode()). Mini-batching bounds the
// encode scratch at batch_images * dim int32 per lane regardless of set
// size; the class histograms are bounded by histogram_budget_bytes.
//
// Train/serve contract: everything here mutates only *training* state —
// the caller's accumulators — never the read state concurrent queries run
// on. A trainer thread that serves traffic while learning owns its
// hd_classifier privately (fit/partial_fit/retrain on this engine), then
// publishes hd_classifier::snapshot() through
// serve::inference_engine::publish — one atomic pointer swap; in-flight
// readers keep answering from the snapshot they already hold.
#ifndef UHD_HDC_TRAINER_HPP
#define UHD_HDC_TRAINER_HPP

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/hdc/accumulator.hpp"
#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// How image encodings are bundled into class accumulators (shared with
/// hd_classifier, which re-exports this header).
enum class train_mode {
    binarized_images, ///< sign() each image hypervector before bundling
    raw_sums,         ///< bundle the integer accumulators directly
};

/// Tuning knobs for the mini-batch trainer.
struct trainer_options {
    /// Images encoded per mini-batch within each worker lane. Bounds the
    /// per-lane encode scratch at batch_images * dim() int32 values; the
    /// trained result is independent of this value.
    std::size_t batch_images = 64;
};

/// Detected at compile time: encoders with a span batch-encode entry point
/// (count images back-to-back) get the block-kernel batch path.
template <typename Encoder>
concept batch_encoder = requires(const Encoder& e, std::span<const std::uint8_t> imgs,
                                 std::size_t n, std::span<std::int32_t> out) {
    e.encode_batch(imgs, n, out, static_cast<thread_pool*>(nullptr));
};

/// Detected at compile time: encoders over a stored threshold bank that can
/// count an image into per-pixel level histograms in one quantize pass
/// (uhd_encoder::count_image) get the class-histogram raw_sums path.
template <typename Encoder>
concept histogram_encoder = requires(const Encoder& e, std::span<const std::uint8_t> img,
                                     std::span<std::uint16_t> counts) {
    { e.count_image(img, counts) } -> std::same_as<std::int32_t>;
    { e.panel_bank() } -> std::same_as<std::span<const std::uint8_t>>;
    { e.pixels() } -> std::same_as<std::size_t>;
    e.config().quant_levels;
};

/// Mini-batch parallel bundling of a dataset into per-class accumulators.
template <typename Encoder>
class batch_trainer {
public:
    /// `mode` follows hd_classifier's train_mode (binarized_images
    /// sign-binarizes each image encoding before bundling, raw_sums adds
    /// the integer encodings directly).
    batch_trainer(const Encoder& encoder, std::size_t classes, train_mode mode,
                  trainer_options options = {})
        : encoder_(&encoder), classes_(classes), mode_(mode), options_(options) {
        UHD_REQUIRE(classes >= 1, "trainer needs at least one class");
        if (options_.batch_images == 0) options_.batch_images = 1;
    }

    /// Encode + bundle the whole dataset into one accumulator per class
    /// (the *delta* of a training pass — callers add it onto their model
    /// state). With a pool the set is split into one contiguous chunk per
    /// worker lane; without one the single chunk runs inline. Bit-identical
    /// for every thread count and batch size.
    [[nodiscard]] std::vector<accumulator> accumulate(const data::dataset& train,
                                                      thread_pool* pool = nullptr) const {
        const std::size_t dim = encoder_->dim();
        const std::size_t n = train.size();
        const std::size_t lanes = pool == nullptr ? 1 : pool->size() + 1;
        const std::size_t chunks = n == 0 ? 0 : (n < lanes ? n : lanes);

        // One private class-accumulator set per chunk: no shared mutable
        // state during the parallel phase.
        std::vector<std::vector<accumulator>> lane_acc(
            chunks, std::vector<accumulator>(classes_, accumulator(dim)));

        // Chunk c covers [c*base + min(c, extra), ...) — the same contiguous
        // partition for every pool size, so lane_acc[c] holds the bundle of
        // a fixed image range regardless of which worker ran it.
        const std::size_t base = chunks == 0 ? 0 : n / chunks;
        const std::size_t extra = chunks == 0 ? 0 : n % chunks;
        thread_pool::maybe_parallel_for(
            pool, chunks, [&](std::size_t chunk_begin, std::size_t chunk_end) {
                for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
                    const std::size_t begin = c * base + (c < extra ? c : extra);
                    const std::size_t end = begin + base + (c < extra ? 1 : 0);
                    bundle_range(train, begin, end, lane_acc[c]);
                }
            });

        // Fixed class/lane reduction order. Integer bundling commutes, so
        // this matches the sequential per-image order exactly; keeping the
        // order fixed anyway makes the contract checkable by inspection.
        std::vector<accumulator> out(classes_, accumulator(dim));
        for (std::size_t cls = 0; cls < classes_; ++cls) {
            for (std::size_t lane = 0; lane < chunks; ++lane) {
                out[cls].add(lane_acc[lane][cls]);
            }
        }
        return out;
    }

    /// A lane takes the class-histogram path when it holds at least this
    /// many images per class it touches: below it, the per-class table
    /// passes cost more than encoding the images one by one.
    static constexpr std::size_t histogram_min_images_per_class = 12;

    /// Per-lane budget for the class-histogram scratch (per class: pixels x
    /// levels u16 counts plus dim int32 sums); more classes than fit run as
    /// class tiles, each a pass over the lane's labels that counts only
    /// that tile's images. One class always fits, whatever its size.
    static constexpr std::size_t histogram_budget_bytes = std::size_t{1} << 20;

    /// True when a lane bundling images [begin, end) takes the
    /// class-histogram path: raw_sums over a stored bank, and at least
    /// histogram_min_images_per_class images per class the range touches.
    [[nodiscard]] bool uses_class_histograms(const data::dataset& train, std::size_t begin,
                                             std::size_t end) const {
        if constexpr (histogram_encoder<Encoder>) {
            if (mode_ != train_mode::raw_sums || encoder_->panel_bank().empty()) {
                return false;
            }
            std::vector<bool> seen(classes_, false);
            std::size_t touched = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t cls = train.label(i);
                if (!seen[cls]) {
                    seen[cls] = true;
                    ++touched;
                }
            }
            return end - begin >= histogram_min_images_per_class * touched;
        } else {
            return false;
        }
    }

private:
    /// Bundle images [begin, end) into `acc` (one accumulator per class):
    /// through the class histograms where the identity holds and pays,
    /// else encoding in mini-batches of options_.batch_images.
    void bundle_range(const data::dataset& train, std::size_t begin, std::size_t end,
                      std::vector<accumulator>& acc) const {
        if constexpr (histogram_encoder<Encoder>) {
            if (uses_class_histograms(train, begin, end)) {
                bundle_histograms(train, begin, end, acc);
                return;
            }
        }
        const std::size_t dim = encoder_->dim();
        const std::size_t batch = options_.batch_images;
        std::vector<std::int32_t> encoded(std::min(batch, end - begin) * dim);
        std::vector<std::uint64_t> sign_scratch(kernels::sign_words(dim));
        for (std::size_t b = begin; b < end; b += batch) {
            const std::size_t count = std::min(batch, end - b);
            const std::span<std::int32_t> out(encoded.data(), count * dim);
            if constexpr (batch_encoder<Encoder>) {
                encoder_->encode_batch(train.images(b, count), count, out, nullptr);
            } else {
                for (std::size_t i = 0; i < count; ++i) {
                    encoder_->encode(train.image(b + i), out.subspan(i * dim, dim));
                }
            }
            for (std::size_t i = 0; i < count; ++i) {
                bundle_one(acc[train.label(b + i)], out.subspan(i * dim, dim),
                           sign_scratch);
            }
        }
    }

    /// The class-histogram raw_sums bundle (stored bank): the sum of a
    /// class's thermometer codes at pixel p is the cumulative histogram
    /// H[p][t] = #{class images with q_p >= t}, so the class's bundle is
    /// 2 * sum_p H[p][S_p[d]] - sum_i tau2_i with no per-image encode. One
    /// quantize pass per image bumps counts[class][p][q_p] and adds the
    /// class's tau2. At the end of a class tile, and for one class whenever
    /// its u16 counts could next overflow, the classes holding images are
    /// flushed: their counts are made cumulative and
    /// kernels::count_table_accumulate reads each bank panel once for all
    /// of them. Integer sums, so bit-identical to the per-image path.
    void bundle_histograms(const data::dataset& train, std::size_t begin, std::size_t end,
                           std::vector<accumulator>& acc) const {
        const std::size_t dim = encoder_->dim();
        const std::size_t npix = encoder_->pixels();
        const std::size_t levels = encoder_->config().quant_levels;
        const std::size_t table = npix * levels;
        const std::size_t tile = std::clamp<std::size_t>(
            histogram_budget_bytes /
                (table * sizeof(std::uint16_t) + dim * sizeof(std::int32_t)),
            1, classes_);
        const std::uint8_t* panels = encoder_->panel_bank().data();
        std::vector<std::uint16_t> counts(tile * table);
        std::vector<std::int32_t> sums(tile * dim);
        std::vector<std::int64_t> tau_sum(tile);
        std::vector<std::size_t> images(tile);
        // A flush's table sums stay below 2^31 for any image size.
        const std::size_t flush_at = std::clamp<std::size_t>(
            std::numeric_limits<std::int32_t>::max() / std::max<std::size_t>(npix, 1), 1,
            65535);

        // Flush the tile slots of [k_begin, k_end) that hold images (tile
        // classes start at c0): one kernel call per run of such slots.
        const auto flush = [&](std::size_t c0, std::size_t k_begin, std::size_t k_end) {
            for (std::size_t k = k_begin; k < k_end;) {
                if (images[k] == 0) {
                    ++k;
                    continue;
                }
                std::size_t run_end = k + 1;
                while (run_end < k_end && images[run_end] != 0) ++run_end;
                std::uint16_t* h = counts.data() + k * table;
                for (std::size_t row = 0; row < (run_end - k) * npix; ++row) {
                    std::uint16_t* c = h + row * levels;
                    for (std::size_t t = levels - 1; t > 0; --t) {
                        c[t - 1] = static_cast<std::uint16_t>(c[t - 1] + c[t]);
                    }
                }
                std::fill_n(sums.data(), (run_end - k) * dim, 0);
                kernels::count_table_accumulate(h, run_end - k, npix, levels, panels, dim,
                                                sums.data());
                for (std::size_t i = k; i < run_end; ++i) {
                    const std::int32_t* ones = sums.data() + (i - k) * dim;
                    const std::span<std::int32_t> into = acc[c0 + i].values();
                    for (std::size_t d = 0; d < dim; ++d) {
                        into[d] += static_cast<std::int32_t>(2 * std::int64_t{ones[d]} -
                                                             tau_sum[i]);
                    }
                    std::fill_n(h + (i - k) * table, table, std::uint16_t{0});
                    tau_sum[i] = 0;
                    images[i] = 0;
                }
                k = run_end;
            }
        };

        for (std::size_t c0 = 0; c0 < classes_; c0 += tile) {
            const std::size_t c1 = std::min(classes_, c0 + tile);
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t cls = train.label(i);
                if (cls < c0 || cls >= c1) continue;
                const std::size_t k = cls - c0;
                tau_sum[k] += encoder_->count_image(
                    train.image(i), std::span(counts.data() + k * table, table));
                if (++images[k] == flush_at) flush(c0, k, k + 1);
            }
            flush(c0, 0, c1 - c0);
        }
    }

    /// Same semantics as hd_classifier's per-image bundling step: raw_sums
    /// adds the integer encoding, binarized_images sign-binarizes it
    /// word-parallel first (the kernel zeroes the tail bits, satisfying the
    /// add_sign_words contract; `sign_scratch` is the per-chunk reused
    /// packed buffer, so bundling allocates nothing per image).
    void bundle_one(accumulator& into, std::span<const std::int32_t> encoded,
                    std::vector<std::uint64_t>& sign_scratch) const {
        if (mode_ == train_mode::raw_sums) {
            into.add_values(encoded);
            return;
        }
        kernels::sign_binarize(encoded.data(), encoded.size(), sign_scratch.data());
        into.add_sign_words(sign_scratch);
    }

    const Encoder* encoder_;
    std::size_t classes_;
    train_mode mode_;
    trainer_options options_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_TRAINER_HPP
