// Portable kernel bodies and pinned scalar oracles for the uhd::kernels
// backend registry (uhd/common/kernels.hpp — the runtime dispatch layer
// every hot path routes through).
//
// This header carries only code that is legal on any build target:
//
//  1. the pinned byte-at-a-time *references* (UHD_SCALAR_REFERENCE): the
//     oracles the word-parallel backends are tested and benchmarked
//     against, kept genuinely scalar even under -O3 auto-vectorization;
//  2. the portable scalar helpers (vector-width tails, tile flushes);
//  3. the SWAR/u64 kernels — 64-bit word-parallel implementations with no
//     ISA requirement beyond a 64-bit integer unit;
//  4. the register-blocked query-block Hamming kernels and the
//     word-at-a-time XOR-popcount they reduce ragged edges with.
//
// ISA-specific kernel bodies live in per-backend translation units
// (src/common/kernels_scalar.cpp, kernels_swar.cpp, kernels_avx2.cpp); the
// AVX2 unit is self-contained and compiled with a per-file -mavx2, so this
// header must never grow an #ifdef __AVX2__ block again — that would
// reintroduce the compile-time dispatch (and the ODR hazard) the registry
// exists to remove.
//
// Call sites use uhd::kernels; including this header directly is for
// backend TUs, tests, and benchmarks that need a *specific* implementation
// rather than the dispatched one.
#ifndef UHD_COMMON_SIMD_HPP
#define UHD_COMMON_SIMD_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "uhd/common/kernels.hpp"

// Marker for reference kernels that must stay byte-at-a-time scalar code:
// they are the oracle the word-parallel kernels are measured against, so
// letting the compiler auto-vectorize them would silently turn the
// baseline into another SIMD implementation.
#if defined(__clang__)
#define UHD_SCALAR_REFERENCE __attribute__((noinline))
#define UHD_NOVECTOR_LOOP _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define UHD_SCALAR_REFERENCE \
    __attribute__((noinline, optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define UHD_NOVECTOR_LOOP
#else
#define UHD_SCALAR_REFERENCE
#define UHD_NOVECTOR_LOOP
#endif

namespace uhd::simd {

using kernels::argmin2_result;
using kernels::argmin2_u64;
using kernels::sign_words;

/// True byte-at-a-time oracle: geq16[d] += (q >= thresholds[d]) for d in
/// [0, dim), pinned to scalar code (see UHD_SCALAR_REFERENCE) so speedup
/// numbers are measured against a genuinely scalar baseline.
UHD_SCALAR_REFERENCE inline void geq_accumulate_reference(
    std::uint8_t q, const std::uint8_t* thresholds, std::size_t dim,
    std::uint16_t* geq16) noexcept {
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < dim; ++d) {
        geq16[d] = static_cast<std::uint16_t>(geq16[d] + (q >= thresholds[d]));
    }
}

/// Flush a u16 tile into the int32 accumulator: out[d] += geq16[d].
inline void add_u16_to_i32(const std::uint16_t* geq16, std::size_t dim,
                           std::int32_t* out) noexcept {
    for (std::size_t d = 0; d < dim; ++d) out[d] += geq16[d];
}

// --- image-blocked panel kernels ------------------------------------------
//
// out[i * dim + d] += sum_{p<npix} (q[i * npix + p] >= T(p, d)) over the
// panel-major bank (kernels::bank_panel_offset): the whole encode inner
// loop for a block of images in one call. The wide implementations walk
// one panel at a time and register-block several images x a panel slice,
// so each threshold row is loaded once per image block; per-dimension
// counters live in registers as u8 lanes, flushed into the int32 output
// every 255 pixels.

/// Pinned reference for the panel kernel: per image and panel, the pixel
/// rows through the pinned u16 oracle, flushed before a u16 lane can
/// overflow. The scalar backend runs exactly this.
inline void geq_block_accumulate_reference(const std::uint8_t* q, std::size_t npix,
                                           std::size_t n_images,
                                           const std::uint8_t* panels,
                                           std::size_t dim, std::int32_t* out) {
    constexpr std::size_t width_max = kernels::bank_panel_dims;
    for (std::size_t i = 0; i < n_images; ++i) {
        for (std::size_t d0 = 0; d0 < dim; d0 += width_max) {
            const std::size_t width = std::min(width_max, dim - d0);
            const std::uint8_t* panel = panels + d0 * npix;
            std::int32_t* dst = out + i * dim + d0;
            std::uint16_t tile[width_max] = {};
            std::size_t pixels_in_tile = 0;
            for (std::size_t p = 0; p < npix; ++p) {
                geq_accumulate_reference(q[i * npix + p], panel + p * width, width,
                                         tile);
                if (++pixels_in_tile == 65535) {
                    add_u16_to_i32(tile, width, dst);
                    std::fill_n(tile, width, std::uint16_t{0});
                    pixels_in_tile = 0;
                }
            }
            if (pixels_in_tile != 0) add_u16_to_i32(tile, width, dst);
        }
    }
}

/// Every byte of the word set to `b`.
[[nodiscard]] constexpr std::uint64_t splat8(std::uint8_t b) noexcept {
    return 0x0101010101010101ULL * b;
}

/// Highest threshold value the SWAR kernel accepts (both q and thresholds).
inline constexpr std::uint8_t swar_max_value = 127;

/// Per-byte mask (0x80 set) of bytes where q >= x, for bytes <= 127.
///
/// With H = 0x80 splatted, (q|H) - x stays within each byte (no borrow can
/// cross a byte boundary because q|H >= 0x80 and x <= 0x7F), and the high
/// bit of each byte survives exactly when q >= x.
[[nodiscard]] constexpr std::uint64_t geq_mask_swar(std::uint64_t q_splat,
                                                   std::uint64_t x) noexcept {
    constexpr std::uint64_t high = 0x8080808080808080ULL;
    return ((q_splat | high) - x) & high;
}

/// SWAR register tile: NB images x NW threshold words (8 dimensions each)
/// of one panel slice, eight u8 counters per u64, flushed every 255
/// pixels. `slice` points at pixel 0 of the slice, rows `width` apart.
template <std::size_t NB, std::size_t NW>
inline void geq_panel_tile_swar(const std::uint8_t* q, std::size_t npix,
                                const std::uint8_t* slice, std::size_t width,
                                std::size_t dim, std::int32_t* out) noexcept {
    constexpr std::uint64_t low_bits = 0x0101010101010101ULL;
    for (std::size_t p0 = 0; p0 < npix; p0 += 255) {
        const std::size_t p_end = std::min(npix, p0 + 255);
        std::uint64_t counters[NB][NW] = {};
        for (std::size_t p = p0; p < p_end; ++p) {
            std::uint64_t x[NW];
            for (std::size_t w = 0; w < NW; ++w) {
                __builtin_memcpy(&x[w], slice + p * width + 8 * w, 8);
            }
            for (std::size_t i = 0; i < NB; ++i) {
                const std::uint64_t q_splat = splat8(q[i * npix + p]);
                for (std::size_t w = 0; w < NW; ++w) {
                    counters[i][w] += (geq_mask_swar(q_splat, x[w]) >> 7) & low_bits;
                }
            }
        }
        for (std::size_t i = 0; i < NB; ++i) {
            for (std::size_t w = 0; w < NW; ++w) {
                for (std::size_t lane = 0; lane < 8; ++lane) {
                    out[i * dim + 8 * w + lane] +=
                        static_cast<std::int32_t>((counters[i][w] >> (8 * lane)) & 0xFF);
                }
            }
        }
    }
}

/// One panel for NB images: 16-dimension slices, then an 8-dimension one,
/// then the ragged bytes one dimension at a time.
template <std::size_t NB>
inline void geq_panel_swar(const std::uint8_t* q, std::size_t npix,
                           const std::uint8_t* panel, std::size_t width,
                           std::size_t dim, std::int32_t* out) noexcept {
    std::size_t j = 0;
    for (; j + 16 <= width; j += 16) {
        geq_panel_tile_swar<NB, 2>(q, npix, panel + j, width, dim, out + j);
    }
    for (; j + 8 <= width; j += 8) {
        geq_panel_tile_swar<NB, 1>(q, npix, panel + j, width, dim, out + j);
    }
    for (; j < width; ++j) {
        for (std::size_t i = 0; i < NB; ++i) {
            std::int32_t count = 0;
            for (std::size_t p = 0; p < npix; ++p) {
                count += q[i * npix + p] >= panel[p * width + j] ? 1 : 0;
            }
            out[i * dim + j] += count;
        }
    }
}

/// SWAR panel kernel: blocks of four images per panel pass. Preconditions:
/// q and every threshold <= swar_max_value (guaranteed when quant_levels
/// <= 128).
inline void geq_block_accumulate_swar(const std::uint8_t* q, std::size_t npix,
                                      std::size_t n_images, const std::uint8_t* panels,
                                      std::size_t dim, std::int32_t* out) noexcept {
    constexpr std::size_t width_max = kernels::bank_panel_dims;
    for (std::size_t d0 = 0; d0 < dim; d0 += width_max) {
        const std::size_t width = std::min(width_max, dim - d0);
        const std::uint8_t* panel = panels + d0 * npix;
        std::size_t i = 0;
        for (; i + 4 <= n_images; i += 4) {
            geq_panel_swar<4>(q + i * npix, npix, panel, width, dim, out + i * dim + d0);
        }
        const std::uint8_t* q_rest = q + i * npix;
        std::int32_t* out_rest = out + i * dim + d0;
        switch (n_images - i) {
        case 3: geq_panel_swar<3>(q_rest, npix, panel, width, dim, out_rest); break;
        case 2: geq_panel_swar<2>(q_rest, npix, panel, width, dim, out_rest); break;
        case 1: geq_panel_swar<1>(q_rest, npix, panel, width, dim, out_rest); break;
        default: break;
        }
    }
}

// --- rematerializing encode kernels ---------------------------------------
//
// out[j] += sum_{p} ((sobol_fraction_p(d_begin + j) ^ shifts[p]) <=
// bounds[p]) — the geq accumulation with the stored bank replaced by
// on-the-fly Sobol regeneration. Pixel p's direction numbers are the
// `dir_words` u32 words at directions[p * dir_words]; the caller guarantees
// dir_words >= bit_width(d_begin + dim_count), which covers every
// countr_zero index the Gray-code stepping can produce (the encoder passes
// bit_width(dim)). The comparison against the quantized intensity is folded
// into `bounds` (largest raw fraction the pixel's intensity still reaches)
// and the scramble into `shifts`, so the stored-bank byte compare becomes
// one u32 unsigned compare — bit-identical to geq_block_accumulate on the
// materialized bank for every tile split of [0, dim).
//
// The blocked implementations exploit gray(16m + k) = gray(16m) ^ gray(k):
// a 16-entry per-pixel delta table turns the serial Gray-code recurrence
// into 16 independent XOR+compare lanes per block, with one table step
// (base ^= v[countr_zero(m + 1) + 4]) between blocks.

/// Pinned scalar oracle: serial Gray-code stepping, one compare per
/// (pixel, dim). The baseline the blocked/wide kernels are tested against.
UHD_SCALAR_REFERENCE inline void geq_rematerialize_accumulate_reference(
    const std::uint32_t* directions, std::size_t dir_words,
    const std::uint32_t* shifts, const std::uint32_t* bounds, std::size_t npix,
    std::uint64_t d_begin, std::size_t dim_count, std::int32_t* out) noexcept {
    for (std::size_t p = 0; p < npix; ++p) {
        const std::uint32_t* v = directions + p * dir_words;
        // Seek to the tile start via the Gray-code closed form, scramble
        // key folded in so the inner compare needs no XOR.
        std::uint32_t state = shifts[p];
        for (std::uint64_t g = d_begin ^ (d_begin >> 1); g != 0; g &= g - 1) {
            state ^= v[std::countr_zero(g)];
        }
        const std::uint32_t bound = bounds[p];
        std::uint64_t index = d_begin;
        UHD_NOVECTOR_LOOP
        for (std::size_t j = 0; j < dim_count; ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
            ++index;
        }
    }
}

/// Build the 16-entry Gray-code delta table over v[0..3]:
/// delta[k] = XOR of v[i] over the set bits of gray(k).
inline void remat_delta_table(const std::uint32_t* v,
                              std::uint32_t delta[16]) noexcept {
    delta[0] = 0;
    for (unsigned k = 1; k < 16; ++k) {
        delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
    }
}

/// Portable blocked kernel: 16-dimension blocks through the delta table
/// (the compiler is free to vectorize the 16 independent lanes), scalar
/// stepping for the unaligned head/tail. Bit-identical to the reference.
inline void geq_rematerialize_accumulate_portable(
    const std::uint32_t* directions, std::size_t dir_words,
    const std::uint32_t* shifts, const std::uint32_t* bounds, std::size_t npix,
    std::uint64_t d_begin, std::size_t dim_count, std::int32_t* out) noexcept {
    for (std::size_t p = 0; p < npix; ++p) {
        const std::uint32_t* v = directions + p * dir_words;
        std::uint32_t state = shifts[p];
        for (std::uint64_t g = d_begin ^ (d_begin >> 1); g != 0; g &= g - 1) {
            state ^= v[std::countr_zero(g)];
        }
        const std::uint32_t bound = bounds[p];
        std::uint64_t index = d_begin;
        const std::uint64_t end = d_begin + dim_count;
        std::size_t j = 0;
        if (dir_words < 5) {
            // Dimension too small for 16-blocks (delta table and block
            // stepping need v[0..4]); plain serial stepping.
            for (; index < end; ++index, ++j) {
                out[j] += static_cast<std::int32_t>(state <= bound);
                state ^= v[std::countr_zero(index + 1)];
            }
            continue;
        }
        for (; index < end && (index & 15) != 0; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
        std::uint32_t delta[16];
        remat_delta_table(v, delta);
        for (; index + 16 <= end; index += 16, j += 16) {
            for (unsigned k = 0; k < 16; ++k) {
                out[j + k] += static_cast<std::int32_t>((state ^ delta[k]) <= bound);
            }
            // Block step 16m -> 16(m+1): gray(16m) ^ gray(16m + 16) has
            // exactly bits {3, countr_zero(m + 1) + 4} set.
            state ^= v[3] ^ v[std::countr_zero((index >> 4) + 1) + 4];
        }
        for (; index < end; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
    }
}

// --- class-histogram bundling kernels -------------------------------------
//
// out[i * dim + d] += sum_{p} counts[(i * npix + p) * levels + T(p, d)] over
// the panel-major bank: the training pass that reads each class's
// cumulative histograms (entry t of pixel p counts the class's images whose
// pixel p reaches level t) once per (pixel, dimension), in place of one
// compare per (image, pixel, dimension). Every T(p, d) < levels.

/// Pinned scalar oracle: one table read per (table, pixel, dimension),
/// panel by panel. The scalar backend runs exactly this.
UHD_SCALAR_REFERENCE inline void count_table_accumulate_reference(
    const std::uint16_t* counts, std::size_t n_tables, std::size_t npix,
    std::size_t levels, const std::uint8_t* panels, std::size_t dim,
    std::int32_t* out) noexcept {
    for (std::size_t i = 0; i < n_tables; ++i) {
        for (std::size_t d0 = 0; d0 < dim; d0 += kernels::bank_panel_dims) {
            const std::size_t width = std::min(kernels::bank_panel_dims, dim - d0);
            const std::uint8_t* panel = panels + d0 * npix;
            for (std::size_t p = 0; p < npix; ++p) {
                const std::uint16_t* table = counts + (i * npix + p) * levels;
                const std::uint8_t* row = panel + p * width;
                UHD_NOVECTOR_LOOP
                for (std::size_t j = 0; j < width; ++j) {
                    out[i * dim + d0 + j] += table[row[j]];
                }
            }
        }
    }
}

/// Portable gather: panels outermost so each panel is read once for every
/// table, the panel's output slice (at most 256 int32, L1-resident) summed
/// eight dimensions at a time in independent lanes. Any levels; the swar
/// backend's body and the wide backends' path above 16 levels.
inline void count_table_accumulate_portable(const std::uint16_t* counts,
                                            std::size_t n_tables, std::size_t npix,
                                            std::size_t levels,
                                            const std::uint8_t* panels, std::size_t dim,
                                            std::int32_t* out) noexcept {
    for (std::size_t d0 = 0; d0 < dim; d0 += kernels::bank_panel_dims) {
        const std::size_t width = std::min(kernels::bank_panel_dims, dim - d0);
        const std::uint8_t* panel = panels + d0 * npix;
        for (std::size_t i = 0; i < n_tables; ++i) {
            std::int32_t* dst = out + i * dim + d0;
            for (std::size_t p = 0; p < npix; ++p) {
                const std::uint16_t* table = counts + (i * npix + p) * levels;
                const std::uint8_t* row = panel + p * width;
                std::size_t j = 0;
                for (; j + 8 <= width; j += 8) {
                    for (std::size_t k = 0; k < 8; ++k) dst[j + k] += table[row[j + k]];
                }
                for (; j < width; ++j) dst[j] += table[row[j]];
            }
        }
    }
}

// --- sign-binarize kernels ------------------------------------------------
//
// Pack the sign bits of an int32 accumulator span into 64-bit words under
// the hypervector convention (bit 1 = -1): bit d is set exactly when
// v[d] < 0, so >= 0 maps to +1 — the same tie rule as accumulator::sign()
// and the hardware's popcount >= TOB binarizer. The output holds
// ceil(n / 64) words and every kernel zeroes the tail bits beyond n, so the
// result satisfies the bitstream tail invariant as-is.

/// True byte-at-a-time oracle for sign binarization (pinned scalar; the
/// baseline the word-parallel kernels are tested and benchmarked against).
UHD_SCALAR_REFERENCE inline void sign_binarize_reference(
    const std::int32_t* v, std::size_t n, std::uint64_t* words) noexcept {
    for (std::size_t w = 0; w < sign_words(n); ++w) words[w] = 0;
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < n; ++d) {
        if (v[d] < 0) words[d / 64] |= std::uint64_t{1} << (d % 64);
    }
}

/// SWAR kernel: two int32 values per u64 load — bits 31 and 63 of the load
/// are exactly the two sign bits on little-endian, so one full output word
/// costs 32 loads and a handful of shifts. Big-endian builds (where the
/// pair order inside the load is swapped) take a plain per-element loop
/// the compiler is free to vectorize.
inline void sign_binarize_swar(const std::int32_t* v, std::size_t n,
                               std::uint64_t* words) noexcept {
    if constexpr (std::endian::native != std::endian::little) {
        for (std::size_t w = 0; w < sign_words(n); ++w) words[w] = 0;
        for (std::size_t d = 0; d < n; ++d) {
            if (v[d] < 0) words[d / 64] |= std::uint64_t{1} << (d % 64);
        }
        return;
    }
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 32; ++i) {
            std::uint64_t pair;
            __builtin_memcpy(&pair, v + d + 2 * i, 8);
            bits |= ((pair >> 31) & 1u) << (2 * i);
            bits |= (pair >> 63) << (2 * i + 1);
        }
        words[w] = bits;
    }
    if (d < n) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; d + i < n; ++i) {
            if (v[d + i] < 0) bits |= std::uint64_t{1} << i;
        }
        words[w] = bits;
    }
}

/// popcount(a XOR b) over `n` packed words: the per-row Hamming distance
/// the portable query-block kernels reduce their ragged edges with.
[[nodiscard]] inline std::uint64_t xor_popcount_words(const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      std::size_t n) noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
    return total;
}

// --- query-block Hamming kernels (multi-query bitwise GEMM) ---------------
//
// The associative search over a packed memory: `rows` holds `n_rows`
// binarized class vectors back-to-back, `row_words` u64 words each, and the
// queries use the same packing. A block of queries is answered in one call:
// the queries x rows distance plane is tiled (4 queries x 2 rows per inner
// tile here; the wide backends use the same shape over vector words) so
// each class row is streamed from memory once per query *tile* instead of
// once per query, and the 1-3 query tail (a single query included) runs
// per-row XOR-popcount loops. Distances are exact integer popcounts, so any
// tile order is bit-identical to per-query scans. The fused argmin2 variant
// applies row updates in ascending row order per query, so ties resolve to
// the lowest row index (strict <) — exactly the first-wins rule of the
// per-class cosine scan it replaces: cosine = (D - 2 * hamming) / D is
// strictly decreasing in the distance, so argmax-cosine with strict >
// equals argmin-distance with strict <. A prefix window shorter than the
// row (prefix_words < row_words) is the dimension-truncated search of the
// early-exit cascade.

/// Pinned scalar oracle for the query-block window extension.
UHD_SCALAR_REFERENCE inline void hamming_block_extend_reference(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t from_word,
    std::size_t to_word, std::size_t n_rows, std::uint64_t* distances) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            std::uint64_t distance = 0;
            UHD_NOVECTOR_LOOP
            for (std::size_t w = from_word; w < to_word; ++w) {
                distance += static_cast<std::uint64_t>(
                    std::popcount(query[w] ^ rows[row * row_words + w]));
            }
            distances[q * n_rows + row] += distance;
        }
    }
}

/// Pinned scalar oracle for the fused query-block argmin + runner-up.
UHD_SCALAR_REFERENCE inline void hamming_block_argmin2_prefix_reference(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t prefix_words,
    std::size_t n_rows, argmin2_result* results) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        argmin2_result r{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
        for (std::size_t row = 0; row < n_rows; ++row) {
            std::uint64_t distance = 0;
            UHD_NOVECTOR_LOOP
            for (std::size_t w = 0; w < prefix_words; ++w) {
                distance += static_cast<std::uint64_t>(
                    std::popcount(query[w] ^ rows[row * row_words + w]));
            }
            if (distance < r.distance) {
                r.runner_up = r.distance;
                r.distance = distance;
                r.index = row;
            } else if (distance < r.runner_up) {
                r.runner_up = distance;
            }
        }
        results[q] = r;
    }
}

/// Register-blocked portable tile: distances over [from_word, to_word) for
/// a full 4-query x 2-row tile, eight u64 accumulators live across the one
/// pass over the two rows' window words.
inline void hamming_block_tile_4x2(const std::uint64_t* q0, const std::uint64_t* q1,
                                   const std::uint64_t* q2, const std::uint64_t* q3,
                                   const std::uint64_t* r0, const std::uint64_t* r1,
                                   std::size_t from_word, std::size_t to_word,
                                   std::uint64_t d[4][2]) noexcept {
    std::uint64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    std::uint64_t c0 = 0, c1 = 0, e0 = 0, e1 = 0;
    for (std::size_t w = from_word; w < to_word; ++w) {
        const std::uint64_t rw0 = r0[w];
        const std::uint64_t rw1 = r1[w];
        a0 += static_cast<std::uint64_t>(std::popcount(q0[w] ^ rw0));
        a1 += static_cast<std::uint64_t>(std::popcount(q0[w] ^ rw1));
        b0 += static_cast<std::uint64_t>(std::popcount(q1[w] ^ rw0));
        b1 += static_cast<std::uint64_t>(std::popcount(q1[w] ^ rw1));
        c0 += static_cast<std::uint64_t>(std::popcount(q2[w] ^ rw0));
        c1 += static_cast<std::uint64_t>(std::popcount(q2[w] ^ rw1));
        e0 += static_cast<std::uint64_t>(std::popcount(q3[w] ^ rw0));
        e1 += static_cast<std::uint64_t>(std::popcount(q3[w] ^ rw1));
    }
    d[0][0] = a0; d[0][1] = a1;
    d[1][0] = b0; d[1][1] = b1;
    d[2][0] = c0; d[2][1] = c1;
    d[3][0] = e0; d[3][1] = e1;
}

/// Portable register-blocked query-block window extension (4 queries x
/// 2 rows per inner tile; ragged edges fall back to per-pair reductions).
inline void hamming_block_extend_portable(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t from_word,
    std::size_t to_word, std::size_t n_rows, std::uint64_t* distances) noexcept {
    const std::size_t span = to_word - from_word;
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* q0 = queries + (q + 0) * query_words;
        const std::uint64_t* q1 = queries + (q + 1) * query_words;
        const std::uint64_t* q2 = queries + (q + 2) * query_words;
        const std::uint64_t* q3 = queries + (q + 3) * query_words;
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            hamming_block_tile_4x2(q0, q1, q2, q3, rows + row * row_words,
                                   rows + (row + 1) * row_words, from_word, to_word,
                                   d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] += d[qi][0];
                distances[(q + qi) * n_rows + row + 1] += d[qi][1];
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words + from_word;
            distances[(q + 0) * n_rows + row] += xor_popcount_words(q0 + from_word, r0, span);
            distances[(q + 1) * n_rows + row] += xor_popcount_words(q1 + from_word, r0, span);
            distances[(q + 2) * n_rows + row] += xor_popcount_words(q2 + from_word, r0, span);
            distances[(q + 3) * n_rows + row] += xor_popcount_words(q3 + from_word, r0, span);
        }
    }
    for (; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            distances[q * n_rows + row] += xor_popcount_words(
                query + from_word, rows + row * row_words + from_word, span);
        }
    }
}

/// argmin2 update for one (row, distance) observation — rows must be fed in
/// ascending order per query to preserve the first-wins tie rule.
inline void argmin2_update(argmin2_result& r, std::size_t row,
                           std::uint64_t distance) noexcept {
    if (distance < r.distance) {
        r.runner_up = r.distance;
        r.distance = distance;
        r.index = row;
    } else if (distance < r.runner_up) {
        r.runner_up = distance;
    }
}

/// Portable fused query-block argmin + runner-up (same 4x2 tiling as the
/// window extension; per-query argmin2 state updated in ascending row
/// order, so the result is bit-identical to per-query prefix scans).
inline void hamming_block_argmin2_prefix_portable(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t prefix_words,
    std::size_t n_rows, argmin2_result* results) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        results[q] = argmin2_result{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    }
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* q0 = queries + (q + 0) * query_words;
        const std::uint64_t* q1 = queries + (q + 1) * query_words;
        const std::uint64_t* q2 = queries + (q + 2) * query_words;
        const std::uint64_t* q3 = queries + (q + 3) * query_words;
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            hamming_block_tile_4x2(q0, q1, q2, q3, rows + row * row_words,
                                   rows + (row + 1) * row_words, 0, prefix_words, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row, d[qi][0]);
                argmin2_update(results[q + qi], row + 1, d[qi][1]);
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words;
            argmin2_update(results[q + 0], row, xor_popcount_words(q0, r0, prefix_words));
            argmin2_update(results[q + 1], row, xor_popcount_words(q1, r0, prefix_words));
            argmin2_update(results[q + 2], row, xor_popcount_words(q2, r0, prefix_words));
            argmin2_update(results[q + 3], row, xor_popcount_words(q3, r0, prefix_words));
        }
    }
    for (; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            argmin2_update(results[q], row,
                           xor_popcount_words(query, rows + row * row_words,
                                              prefix_words));
        }
    }
}

// --- blocked int32 dot-product kernels (integer-cosine inference) ---------
//
// Each product is computed exactly in int64 (|a|,|b| <= 2^31 so the product
// fits) and accumulated into four independent double lanes; only the lane
// additions round. Four lanes break the serial dependence so the compiler
// can pipeline/vectorize the conversion+add, and the lane split is fixed,
// so results are deterministic (though not bit-identical to a strictly
// serial double accumulation). Every backend runs this exact algorithm —
// the fixed lane order makes the result bit-identical across backends even
// when a wider TU vectorizes the lane arithmetic.

/// Sum of squares of an int32 span, in double.
[[nodiscard]] inline double sum_squares_i32(const std::int32_t* v,
                                            std::size_t n) noexcept {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t main_n = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main_n; i += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
            const std::int64_t x = v[i + l];
            lanes[l] += static_cast<double>(x * x);
        }
    }
    for (std::size_t i = main_n; i < n; ++i) {
        const std::int64_t x = v[i];
        lanes[i % 4] += static_cast<double>(x * x);
    }
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Dot product of two int32 spans, in double.
[[nodiscard]] inline double dot_i32(const std::int32_t* a, const std::int32_t* b,
                                    std::size_t n) noexcept {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t main_n = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main_n; i += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
            lanes[l] += static_cast<double>(static_cast<std::int64_t>(a[i + l]) *
                                            static_cast<std::int64_t>(b[i + l]));
        }
    }
    for (std::size_t i = main_n; i < n; ++i) {
        lanes[i % 4] += static_cast<double>(static_cast<std::int64_t>(a[i]) *
                                            static_cast<std::int64_t>(b[i]));
    }
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Sum of v[i] over the set bits of a packed mask covering n values
/// (mask words beyond bit n must be zero — the bitstream tail invariant).
/// This is the kernel behind the packed-query integer dot product:
/// with bit 1 = -1, dot(query, v) = sum(v) - 2 * masked_sum(mask, v).
[[nodiscard]] inline std::int64_t masked_sum_i32(const std::uint64_t* mask,
                                                 const std::int32_t* v,
                                                 std::size_t n) noexcept {
    std::int64_t total = 0;
    const std::size_t full_words = n / 64;
    for (std::size_t wi = 0; wi <= full_words; ++wi) {
        const std::size_t base = wi * 64;
        if (base >= n) break;
        for (std::uint64_t m = mask[wi]; m != 0; m &= m - 1) {
            total += v[base + static_cast<std::size_t>(std::countr_zero(m))];
        }
    }
    return total;
}

} // namespace uhd::simd

#endif // UHD_COMMON_SIMD_HPP
