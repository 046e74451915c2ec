// The uHD encoder — the paper's primary contribution (Fig. 2 + Fig. 3).
//
// Position hypervectors are eliminated: pixel p is encoded with its *own*
// Sobol dimension S_p (the sequence index carries the position), and the
// level hypervector is the comparison stream
//
//     L_p[d] = +1  iff  x_p >= S_p[d]
//
// so the whole image encodes as the multiplier-less bundle
// acc[d] = sum_p L_p[d]. Both intensities and Sobol scalars are quantized to
// xi = 16 levels and represented as N = 16-bit unary streams; comparison is
// done with the Fig. 4 unary comparator (>= semantics, which resolves
// quantization ties to +1 — the "flipped bits" the paper argues are
// harmless).
//
// Four equivalent encode paths are provided:
//  * encode()        — word-parallel quantized comparison (production path;
//                      runtime-dispatched uhd::kernels backend — scalar,
//                      SWAR, AVX2, or AVX-512, selected by the CPU probe);
//                      encode_batch() runs the same kernel over blocks of
//                      images, loading each threshold once per block
//  * encode_scalar() — the byte-at-a-time formulation, retained as the
//                      correctness oracle and the benchmark baseline
//  * encode_unary()  — the unary datapath. Its monotone_fast fidelity uses
//                      the O(1) comparator identity (a thermometer stream's
//                      value IS its popcount, so Fig. 4 reduces to an
//                      integer compare); gate_exact keeps the bit-faithful
//                      UST fetch + gate-level comparator.
//  * encode_exact()  — unquantized double comparison (reference for the
//                      quantization-error ablation)
// All integer paths are bit-identical by construction; tests enforce it.
#ifndef UHD_CORE_ENCODER_HPP
#define UHD_CORE_ENCODER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/bitstream/stream_table.hpp"
#include "uhd/common/aligned.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/config.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/hdc/hypervector.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace uhd::core {

/// How encode_unary() evaluates the Fig. 4 comparator.
enum class unary_fidelity {
    monotone_fast, ///< O(1) identity: value(stream) = popcount, so >= on
                   ///< streams is >= on quantized values
    gate_exact,    ///< bit-faithful UST fetch + gate-level comparator
};

/// Sobol-index-embedding level encoder (no position hypervectors).
class uhd_encoder {
public:
    /// Build the threshold state for images of `shape` and the unary stream
    /// table. With bank_mode::stored this materializes the quantized Sobol
    /// bank (the BRAM of Fig. 3(a)), repacked once into the 64-byte aligned
    /// dimension-panel layout the encode kernel streams (see
    /// kernels::bank_panel_offset); with bank_mode::rematerialize it keeps
    /// only O(1) generator state per pixel (compact direction numbers, the
    /// per-pixel digital shift, and the per-level fraction bounds) and the
    /// encode kernels regenerate threshold rows on the fly. Both modes are
    /// bit-identical on every encode path.
    uhd_encoder(const uhd_config& config, data::image_shape shape);

    /// Build with an externally supplied threshold bank (pixels x dim rows,
    /// values < config.quant_levels). This is the hook for the sequence-
    /// family ablation: identical datapath, different threshold source.
    /// The bank replaces the Sobol one (repacked into the same panel layout;
    /// the row-major copy is not kept); encode_exact() remains Sobol-based.
    /// Requires bank_mode::stored — an arbitrary bank has no generator to
    /// rematerialize from.
    uhd_encoder(const uhd_config& config, data::image_shape shape,
                ld::quantized_sobol_bank custom_bank);

    /// Hypervector dimension D.
    [[nodiscard]] std::size_t dim() const noexcept { return config_.dim; }

    /// Pixel count H.
    [[nodiscard]] std::size_t pixels() const noexcept { return shape_.pixels(); }

    /// Image shape this encoder was built for.
    [[nodiscard]] const data::image_shape& shape() const noexcept { return shape_; }

    /// Active configuration.
    [[nodiscard]] const uhd_config& config() const noexcept { return config_; }

    /// Quantize an 8-bit intensity to xi levels (shared by all paths;
    /// table lookup, precomputed in the constructor).
    [[nodiscard]] std::uint8_t quantize_intensity(std::uint8_t intensity) const noexcept {
        return quant_lut_[intensity];
    }

    /// Fast path (the dispatched kernels::geq_block_accumulate, called with
    /// n_images = 1). With the default mean_intensity
    /// policy, out[d] = 2 * ones[d] - 2 * TOB(image) where ones[d] counts
    /// pixels with q(x_p) >= q(S_p[d]) and TOB is the image's expected
    /// popcount; with half_inputs, out[d] = 2 * ones[d] - H (the bipolar
    /// bundle sum_p L_p[d]). sign(out[d]) is the Fig. 5 class-hypervector
    /// bit. Bit-identical to encode_scalar().
    void encode(std::span<const std::uint8_t> image, std::span<std::int32_t> out) const;

    /// The original byte-at-a-time formulation of encode(): the correctness
    /// oracle for the word-parallel kernels and the benchmark baseline.
    void encode_scalar(std::span<const std::uint8_t> image,
                       std::span<std::int32_t> out) const;

    /// Encode `count` images stored back-to-back in `images` (each
    /// shape().pixels() bytes) into `out` (count * dim() accumulators,
    /// image-major). Each worker's contiguous share is quantized and pushed
    /// through the image-blocked kernel in calls of up to
    /// encode_block_images images, so every threshold panel is loaded once
    /// per block instead of once per image. When `pool` is non-null the
    /// batch is split across its workers; results are bit-identical to
    /// encode() per image for every thread count.
    void encode_batch(std::span<const std::uint8_t> images, std::size_t count,
                      std::span<std::int32_t> out, thread_pool* pool = nullptr) const;

    /// Images per kernel call in encode_batch(): bounds the per-thread
    /// quantized scratch (64 x pixels bytes) and keeps one threshold panel
    /// plus the block's intensities cache-resident.
    static constexpr std::size_t encode_block_images = 64;

    /// Batch-encode a whole dataset (shape must match this encoder).
    void encode_batch(const data::dataset& set, std::span<std::int32_t> out,
                      thread_pool* pool = nullptr) const;

    /// The doubled binarization threshold 2*TOB used by encode() for this
    /// image under the configured policy (exposed for tests and the
    /// datapath simulator).
    [[nodiscard]] std::int32_t doubled_threshold(
        std::span<const std::uint8_t> image) const;

    /// One quantize pass over `image` for class-histogram training: add one
    /// to counts[p * quant_levels + q(x_p)] for every pixel p and return the
    /// image's doubled_threshold() from the same pass. `counts` holds
    /// pixels() x quant_levels u16 entries; the caller keeps every entry
    /// below 65536. A class's sum of encode() outputs is then
    /// 2 * sum_p H[p][S_p[d]] minus the sum of the returned thresholds,
    /// where H[p][t] counts the class's images whose pixel p reaches level
    /// t (see kernels::count_table_accumulate).
    std::int32_t count_image(std::span<const std::uint8_t> image,
                             std::span<std::uint16_t> counts) const;

    /// Unary datapath. monotone_fast exploits the thermometer-code identity
    /// value(stream) = popcount(stream), collapsing the Fig. 4 comparator
    /// to the same quantized integer compare as encode() — O(H * D).
    /// gate_exact runs the UST fetch + gate-level comparator per
    /// (pixel, dim) — O(H * D * N), use small D in tests. Both fidelities
    /// are bit-identical to encode(); tests enforce it.
    void encode_unary(std::span<const std::uint8_t> image, std::span<std::int32_t> out,
                      unary_fidelity fidelity = unary_fidelity::monotone_fast) const;

    /// Reference path without quantization: compares x_p/255 >= S_p[d] in
    /// double precision (regenerates Sobol scalars on the fly).
    void encode_exact(std::span<const std::uint8_t> image,
                      std::span<std::int32_t> out) const;

    /// Encode and binarize (the image hypervector of Fig. 5).
    [[nodiscard]] hdc::hypervector encode_sign(std::span<const std::uint8_t> image) const;

    /// The quantized Sobol thresholds of pixel `p` (BRAM row), copied into
    /// a per-thread buffer: gathered from the panel bank in stored mode,
    /// regenerated in rematerialize mode. The span is valid until the
    /// calling thread's next sobol_row() call (on any encoder).
    [[nodiscard]] std::span<const std::uint8_t> sobol_row(std::size_t p) const;

    /// Quantized threshold of pixel `p` at dimension `d` — sobol_row(p)[d]
    /// without materializing the row: one panel-bank load in stored mode,
    /// a closed-form Gray-code seek (at most bit_width(d) XORs) in
    /// rematerialize mode.
    [[nodiscard]] std::uint8_t threshold(std::size_t p, std::size_t d) const;

    /// The stored threshold bank in its panel-major layout
    /// (kernels::bank_panel_offset; pixels() * dim() bytes, data() 64-byte
    /// aligned). Empty in rematerialize mode.
    [[nodiscard]] std::span<const std::uint8_t> panel_bank() const noexcept {
        return {panels_.data(), panels_.size()};
    }

    /// The unary stream table (Fig. 3(c)).
    [[nodiscard]] const bs::unary_stream_table& stream_table() const noexcept {
        return ust_;
    }

    /// Direction-number table backing the Sobol bank.
    [[nodiscard]] const ld::sobol_directions& directions() const noexcept {
        return directions_;
    }

    /// Bytes of threshold state: the resident bank in stored mode, or the
    /// compact per-pixel generator state (direction-number prefixes +
    /// digital shifts + the shared bound table) in rematerialize mode.
    /// This is the O(pixels * D) -> O(pixels) term the rematerializing
    /// encoder shrinks; the bench footprint gate reads it directly.
    [[nodiscard]] std::size_t threshold_bytes() const noexcept;

    /// Heap footprint: threshold state + UST + direction table + the
    /// per-pixel CDF sidecar + the intensity quantization LUT — the exact
    /// uHD dynamic-memory term in Table I.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    uhd_config config_;
    data::image_shape shape_;
    ld::sobol_directions directions_;
    // Threshold state, stored mode: the dense quantized bank, panel-major
    // (kernels::bank_panel_offset) and cache-line aligned, exactly
    // pixels x dim bytes. Empty in rematerialize mode — that is the whole
    // point.
    cache_aligned_vector<std::uint8_t> panels_;
    bs::unary_stream_table ust_;
    // Threshold state, rematerialize mode: per-pixel generator state fed to
    // kernels::geq_rematerialize_accumulate. remat_dirs_ holds the first
    // dir_words_ = bit_width(dim) direction numbers of each pixel (all the
    // Gray-code stepping for indices < dim can touch), shifts_ the
    // per-pixel digital shift, and bound_table_[q] the largest raw fraction
    // that quantizes to <= q (ld::quantize_bounds).
    std::size_t dir_words_ = 0;
    std::vector<std::uint32_t> remat_dirs_; // pixels x dir_words_
    std::vector<std::uint32_t> shifts_;     // one per pixel
    std::vector<std::uint32_t> bound_table_; // quant_levels entries
    // cdf_counts_[p * xi + q] = #{d : bank.row(p)[d] <= q}; makes the
    // mean_intensity TOB the exact per-dimension mean of the popcounts
    // (one small popcount table per pixel, Fig. 3(a)'s BRAM sidecar).
    // Identical in both bank modes: rematerialize streams the same
    // quantized rows through it at construction.
    std::vector<std::uint32_t> cdf_counts_;
    // quant_lut_[x] = quantize_unit(x / 255, xi) — one lookup per pixel on
    // the hot path instead of a double multiply + round.
    std::array<std::uint8_t, 256> quant_lut_{};

    // Per-pixel digital shift (the bank ctor's formula; 0 when unscrambled).
    [[nodiscard]] std::uint32_t pixel_shift(std::size_t p) const noexcept;
    // Regenerate pixel p's quantized threshold row (dim values) into `row`.
    void materialize_row(std::size_t p, std::uint8_t* row) const;
    // Shared ctor tail: quantization LUT + per-pixel CDF sidecar, and in
    // stored mode the panel repack of `bank` (row-major, then dropped).
    void build_tables(const ld::quantized_sobol_bank* bank);
    // encode() / encode_batch() body for `count` back-to-back images.
    void encode_images(const std::uint8_t* images, std::size_t count,
                       std::int32_t* out) const;
    // The one quantize pass every encode path shares: sink(p, q(x_p)) for
    // each pixel, returning the image's doubled threshold (2 * TOB) read
    // from the same loop.
    template <typename Sink>
    std::int32_t quantize_pass(const std::uint8_t* image, Sink&& sink) const;
};

} // namespace uhd::core

#endif // UHD_CORE_ENCODER_HPP
