#include "uhd/core/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "uhd/bitstream/unary.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/simd.hpp" // pinned-scalar oracle kernels (encode_scalar)

namespace uhd::core {
namespace {

/// The unary stream table and the quantizer are sized by quant_levels, so
/// it is checked before the member initializers allocate anything.
unsigned checked_levels(unsigned levels) {
    UHD_REQUIRE(levels >= 2 && levels <= 256, "quantization levels must be in [2, 256]");
    return levels;
}

} // namespace

uhd_encoder::uhd_encoder(const uhd_config& config, data::image_shape shape)
    : config_(config),
      shape_(shape),
      directions_(ld::sobol_directions::standard(shape.pixels(), config.sobol_seed)),
      ust_(checked_levels(config.quant_levels), config.stream_length()) {
    UHD_REQUIRE(config.dim >= 64, "dimension too small to be hyperdimensional");
    UHD_REQUIRE(shape.channels == 1, "uHD encoder expects grayscale images");

    if (config_.bank == bank_mode::stored) {
        const ld::quantized_sobol_bank bank(directions_, shape_.pixels(), config_.dim,
                                            config_.quant_levels,
                                            config_.scramble ? config_.sobol_seed : 0);
        build_tables(&bank);
        return;
    }
    // O(pixels) generator state instead of the O(pixels * D) bank:
    // bit_width(dim) direction words cover every Gray-code advance the
    // kernels perform for point indices <= dim (including the final
    // countr_zero(dim) state step), one digital-shift word per pixel,
    // and one shared bound per quantization level.
    dir_words_ = std::bit_width(config_.dim);
    UHD_REQUIRE(dir_words_ <= static_cast<std::size_t>(ld::sobol_bits),
                "dimension exceeds the 32-bit Sobol generator range");
    remat_dirs_.resize(shape_.pixels() * dir_words_);
    shifts_.resize(shape_.pixels());
    for (std::size_t p = 0; p < shape_.pixels(); ++p) {
        const auto dirs = directions_.direction_numbers(p);
        std::copy_n(dirs.data(), dir_words_, remat_dirs_.data() + p * dir_words_);
        shifts_[p] = pixel_shift(p);
    }
    bound_table_ = ld::quantize_bounds(config_.quant_levels);
    build_tables(nullptr);
}

uhd_encoder::uhd_encoder(const uhd_config& config, data::image_shape shape,
                         ld::quantized_sobol_bank custom_bank)
    : config_(config),
      shape_(shape),
      directions_(ld::sobol_directions::standard(shape.pixels(), config.sobol_seed)),
      ust_(checked_levels(config.quant_levels), config.stream_length()) {
    UHD_REQUIRE(config.bank == bank_mode::stored,
                "a custom threshold bank has no generator to rematerialize from");
    UHD_REQUIRE(config.dim >= 64, "dimension too small to be hyperdimensional");
    UHD_REQUIRE(shape.channels == 1, "uHD encoder expects grayscale images");
    UHD_REQUIRE(custom_bank.dims() == shape.pixels() && custom_bank.samples() == config.dim &&
                    custom_bank.levels() == config.quant_levels,
                "threshold bank geometry does not match the configuration");
    build_tables(&custom_bank);
}

std::uint32_t uhd_encoder::pixel_shift(std::size_t p) const noexcept {
    // The quantized_sobol_bank ctor's formula, so rematerialized rows are
    // byte-identical to stored ones (including the seed-0 no-shift case).
    if (!config_.scramble || config_.sobol_seed == 0) return 0;
    return static_cast<std::uint32_t>(
        hash64(config_.sobol_seed ^ (0x9e3779b9ULL * (p + 1))));
}

void uhd_encoder::materialize_row(std::size_t p, std::uint8_t* row) const {
    ld::sobol_sequence seq(directions_.direction_numbers(p));
    const std::uint32_t shift = pixel_shift(p);
    for (std::size_t i = 0; i < config_.dim; ++i) {
        const std::uint32_t fraction = seq.next_fraction() ^ shift;
        row[i] = ld::quantize_unit(ld::sobol_sequence::fraction_to_unit(fraction),
                                   config_.quant_levels);
    }
}

void uhd_encoder::build_tables(const ld::quantized_sobol_bank* bank) {
    for (unsigned x = 0; x < 256; ++x) {
        quant_lut_[x] = ld::quantize_unit(static_cast<double>(x) / 255.0,
                                          config_.quant_levels);
    }

    // Per-pixel threshold CDF: how many of the pixel's D thresholds a given
    // quantized intensity reaches. Used for exact mean-centering. In
    // rematerialize mode the rows are streamed through once here and then
    // discarded — the CDF sidecar stays, the bank does not. In stored mode
    // each row is also scattered into its panels (row-major in, panel-major
    // out), and the caller's row-major bank is dropped afterwards.
    const std::size_t pixels = shape_.pixels();
    const std::size_t dim = config_.dim;
    const unsigned xi = config_.quant_levels;
    cdf_counts_.assign(pixels * xi, 0);
    std::vector<std::uint8_t> scratch;
    if (bank != nullptr) {
        panels_.resize(pixels * dim);
    } else {
        scratch.resize(dim);
    }
    for (std::size_t p = 0; p < pixels; ++p) {
        std::uint32_t* cdf = cdf_counts_.data() + p * xi;
        std::span<const std::uint8_t> row;
        if (bank != nullptr) {
            row = bank->row(p);
            for (std::size_t d0 = 0; d0 < dim; d0 += kernels::bank_panel_dims) {
                const std::size_t width = std::min(kernels::bank_panel_dims, dim - d0);
                std::copy_n(row.data() + d0, width,
                            panels_.data() + kernels::bank_panel_offset(pixels, dim, p, d0));
            }
        } else {
            materialize_row(p, scratch.data());
            row = {scratch.data(), dim};
        }
        for (const std::uint8_t s : row) ++cdf[s];
        for (unsigned q = 1; q < xi; ++q) cdf[q] += cdf[q - 1];
    }
}

std::span<const std::uint8_t> uhd_encoder::sobol_row(std::size_t p) const {
    UHD_REQUIRE(p < shape_.pixels(), "bank dimension out of range");
    // Reused per thread: gate-exact unary encode and encode_scalar fetch
    // rows one pixel at a time.
    static thread_local std::vector<std::uint8_t> row;
    const std::size_t pixels = shape_.pixels();
    const std::size_t dim = config_.dim;
    row.resize(dim);
    if (panels_.empty()) {
        materialize_row(p, row.data());
    } else {
        for (std::size_t d0 = 0; d0 < dim; d0 += kernels::bank_panel_dims) {
            const std::size_t width = std::min(kernels::bank_panel_dims, dim - d0);
            std::copy_n(panels_.data() + kernels::bank_panel_offset(pixels, dim, p, d0),
                        width, row.data() + d0);
        }
    }
    return {row.data(), row.size()};
}

std::uint8_t uhd_encoder::threshold(std::size_t p, std::size_t d) const {
    UHD_REQUIRE(p < shape_.pixels() && d < config_.dim, "threshold index out of range");
    if (!panels_.empty()) {
        return panels_[kernels::bank_panel_offset(shape_.pixels(), config_.dim, p, d)];
    }
    // Point d of the Gray-code Sobol stream is the XOR of the direction
    // numbers over the set bits of gray(d) (point 0 is 0), scrambled by the
    // pixel's digital shift — the seek the rematerializing kernels start
    // each tile with.
    const auto v = directions_.direction_numbers(p);
    std::uint32_t fraction = pixel_shift(p);
    for (std::uint64_t g = d ^ (d >> 1); g != 0; g &= g - 1) {
        fraction ^= v[static_cast<std::size_t>(std::countr_zero(g))];
    }
    return ld::quantize_unit(ld::sobol_sequence::fraction_to_unit(fraction),
                             config_.quant_levels);
}

std::int32_t uhd_encoder::doubled_threshold(std::span<const std::uint8_t> image) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    if (config_.policy == binarize_policy::half_inputs) {
        return static_cast<std::int32_t>(image.size()); // 2 * (H/2)
    }
    // mean_intensity: TOB = sum_p #{d : q_p >= S_p[d]} / D — the exact mean
    // of the per-dimension popcounts, read from the per-pixel CDF tables.
    const unsigned xi = config_.quant_levels;
    std::int64_t reach_sum = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        reach_sum += cdf_counts_[p * xi + q];
    }
    const std::int64_t d = static_cast<std::int64_t>(config_.dim);
    return static_cast<std::int32_t>((2 * reach_sum + d / 2) / d);
}

void uhd_encoder::encode(std::span<const std::uint8_t> image,
                         std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");
    encode_images(image.data(), 1, out.data());
}

void uhd_encoder::encode_images(const std::uint8_t* images, std::size_t count,
                                std::int32_t* out) const {
    const std::size_t pixels = shape_.pixels();
    const std::size_t dim = config_.dim;
    std::fill_n(out, count * dim, 0);
    if (config_.bank == bank_mode::rematerialize) {
        // Fused rematerializing path, one image at a time: translate each
        // pixel's quantized intensity into a raw-fraction bound (state <=
        // bound is exactly q >= quantized threshold; see
        // ld::quantize_bounds), then let the kernel regenerate the Sobol
        // stream in registers. D-tiles keep the int32 accumulator slice
        // L1-resident; integer accumulation makes every tile split
        // bit-identical.
        static thread_local std::vector<std::uint32_t> pixel_bounds;
        pixel_bounds.resize(pixels);
        constexpr std::size_t tile = 4096;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint8_t* image = images + i * pixels;
            for (std::size_t p = 0; p < pixels; ++p) {
                pixel_bounds[p] = bound_table_[quantize_intensity(image[p])];
            }
            for (std::size_t d0 = 0; d0 < dim; d0 += tile) {
                const std::size_t n = std::min(tile, dim - d0);
                kernels::geq_rematerialize_accumulate(remat_dirs_.data(), dir_words_,
                                                      shifts_.data(), pixel_bounds.data(),
                                                      pixels, d0, n, out + i * dim + d0);
            }
        }
    } else {
        // Image-blocked geq counts: quantize a block of images, then run the
        // whole image x pixel x dimension compare through the dispatched
        // panel kernel (the active uhd::kernels backend, selected at
        // runtime from the CPU probe or the UHD_BACKEND override). The
        // quantized block is reused per thread: every pool worker and serve
        // worker encodes here, so per-call allocation would dominate.
        static thread_local std::vector<std::uint8_t> quantized;
        const auto max_value = static_cast<std::uint8_t>(
            std::min<unsigned>(config_.quant_levels - 1, 255));
        for (std::size_t b = 0; b < count; b += encode_block_images) {
            const std::size_t n = std::min(encode_block_images, count - b);
            quantized.resize(n * pixels);
            const std::uint8_t* block = images + b * pixels;
            for (std::size_t k = 0; k < n * pixels; ++k) {
                quantized[k] = quantize_intensity(block[k]);
            }
            kernels::geq_block_accumulate(quantized.data(), pixels, n, panels_.data(),
                                          dim, out + b * dim, max_value);
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::int32_t tau2 = doubled_threshold({images + i * pixels, pixels});
        std::int32_t* acc = out + i * dim;
        for (std::size_t d = 0; d < dim; ++d) acc[d] = 2 * acc[d] - tau2;
    }
}

void uhd_encoder::encode_scalar(std::span<const std::uint8_t> image,
                                std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    // geq[d] counts pixels whose quantized intensity reaches the threshold;
    // the centered bundle is 2 * geq - 2 * TOB (see doubled_threshold).
    // The inner loop is the pinned-scalar reference kernel: this path is
    // the oracle and benchmark baseline, so it must stay byte-at-a-time
    // even under -O3 -march=native auto-vectorization.
    std::vector<std::uint16_t> geq(config_.dim, 0);
    std::vector<std::int32_t> totals(config_.dim, 0);
    std::size_t pixels_in_tile = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        simd::geq_accumulate_reference(q, sobol_row(p).data(), config_.dim, geq.data());
        if (++pixels_in_tile == 65535) {
            simd::add_u16_to_i32(geq.data(), config_.dim, totals.data());
            std::fill(geq.begin(), geq.end(), std::uint16_t{0});
            pixels_in_tile = 0;
        }
    }
    if (pixels_in_tile != 0) {
        simd::add_u16_to_i32(geq.data(), config_.dim, totals.data());
    }
    const std::int32_t tau2 = doubled_threshold(image);
    for (std::size_t d = 0; d < config_.dim; ++d) {
        out[d] = 2 * totals[d] - tau2;
    }
}

void uhd_encoder::encode_batch(std::span<const std::uint8_t> images, std::size_t count,
                               std::span<std::int32_t> out, thread_pool* pool) const {
    const std::size_t pixels = shape_.pixels();
    UHD_REQUIRE(images.size() == count * pixels, "batch image buffer size mismatch");
    UHD_REQUIRE(out.size() == count * config_.dim, "batch output size mismatch");
    thread_pool::maybe_parallel_for(pool, count, [&](std::size_t begin, std::size_t end) {
        encode_images(images.data() + begin * pixels, end - begin,
                      out.data() + begin * config_.dim);
    });
}

void uhd_encoder::encode_batch(const data::dataset& set, std::span<std::int32_t> out,
                               thread_pool* pool) const {
    UHD_REQUIRE(set.shape() == shape_, "dataset shape mismatch");
    encode_batch(set.images(0, set.size()), set.size(), out, pool);
}

void uhd_encoder::encode_unary(std::span<const std::uint8_t> image,
                               std::span<std::int32_t> out,
                               unary_fidelity fidelity) const {
    if (fidelity == unary_fidelity::monotone_fast) {
        // A thermometer stream's value is its popcount, and both operands
        // of the Fig. 4 comparator are fetched from the same UST (same
        // length, same alignment), so unary_compare_geq(U[q], U[s])
        // is exactly q >= s — the comparison encode() already performs.
        encode(image, out);
        return;
    }
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    std::vector<std::int32_t> ones(config_.dim, 0);
    for (std::size_t p = 0; p < image.size(); ++p) {
        // Fetch the intensity's unary stream from the UST (Fig. 3(c))...
        const bs::bitstream& data_stream = ust_.fetch(quantize_intensity(image[p]));
        const std::uint8_t* row = sobol_row(p).data();
        for (std::size_t d = 0; d < config_.dim; ++d) {
            // ...and the Sobol scalar's stream, then run the Fig. 4 comparator.
            const bs::bitstream& sobol_stream = ust_.fetch(row[d]);
            if (bs::unary_compare_geq(data_stream, sobol_stream)) ++ones[d];
        }
    }
    const std::int32_t tau2 = doubled_threshold(image);
    for (std::size_t d = 0; d < config_.dim; ++d) out[d] = 2 * ones[d] - tau2;
}

void uhd_encoder::encode_exact(std::span<const std::uint8_t> image,
                               std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    std::vector<std::int32_t> ones(config_.dim, 0);
    for (std::size_t p = 0; p < image.size(); ++p) {
        const double x = static_cast<double>(image[p]) / 255.0;
        ld::sobol_sequence seq(directions_.direction_numbers(p));
        const std::uint32_t shift =
            config_.scramble ? static_cast<std::uint32_t>(
                                   hash64(config_.sobol_seed ^ (0x9e3779b9ULL * (p + 1))))
                             : 0u;
        for (std::size_t d = 0; d < config_.dim; ++d) {
            const std::uint32_t fraction = seq.next_fraction() ^ shift;
            if (x >= ld::sobol_sequence::fraction_to_unit(fraction)) ++ones[d];
        }
    }
    // Same centering as encode(): the empirical per-dimension mean popcount.
    std::int64_t total = 0;
    for (const std::int32_t v : ones) total += v;
    const std::int64_t dims = static_cast<std::int64_t>(config_.dim);
    const std::int32_t tau2 =
        config_.policy == binarize_policy::half_inputs
            ? static_cast<std::int32_t>(image.size())
            : static_cast<std::int32_t>((2 * total + dims / 2) / dims);
    for (std::size_t d = 0; d < config_.dim; ++d) out[d] = 2 * ones[d] - tau2;
}

hdc::hypervector uhd_encoder::encode_sign(std::span<const std::uint8_t> image) const {
    std::vector<std::int32_t> acc(config_.dim);
    encode(image, acc);
    bs::bitstream bits(config_.dim);
    for (std::size_t d = 0; d < config_.dim; ++d) {
        if (acc[d] < 0) bits.set_bit(d, true); // bit 1 = -1
    }
    return hdc::hypervector(std::move(bits));
}

std::size_t uhd_encoder::threshold_bytes() const noexcept {
    if (config_.bank == bank_mode::stored) return panels_.size() * sizeof(std::uint8_t);
    return remat_dirs_.size() * sizeof(std::uint32_t) +
           shifts_.size() * sizeof(std::uint32_t) +
           bound_table_.size() * sizeof(std::uint32_t);
}

std::size_t uhd_encoder::memory_bytes() const noexcept {
    // Exact Table I accounting: every resident byte of encoder state,
    // including the CDF sidecar and the 256-entry intensity LUT.
    return threshold_bytes() + ust_.memory_bytes() + directions_.memory_bytes() +
           cdf_counts_.size() * sizeof(std::uint32_t) + sizeof(quant_lut_);
}

} // namespace uhd::core
