// The AVX-512 backend — the worked instance of the add-a-backend recipe in
// README.md. This translation unit is compiled with per-file -mavx512f
// -mavx512bw (see src/CMakeLists.txt) so a generic build still carries
// these kernels; whether they run is decided by the runtime cpu_features
// probe (AVX-512F + AVX-512BW on the CPU, plus OS ZMM state via the XGETBV
// probe extended to XCR0 bits 5-7).
//
// Hermetic like kernels_avx2.cpp: every helper is a TU-local static in an
// anonymous namespace, no uhd/common/simd.hpp include, scalar tails and the
// fixed 4-lane double accumulation restated locally — a header-inline body
// compiled here under -mavx512* could be COMDAT-selected for the whole
// program and execute AVX-512 code on machines the probe rejected.
//
// Popcount: the XOR-popcount family (the two query-block Hamming kernels
// and their per-row helpers) exists in two flavors, expanded from
// kernels_avx512_family.inc — a VPOPCNTDQ flavor using the native
// _mm512_popcnt_epi64 (compiled in a #pragma GCC target region, so the
// TU's base flags never include it), and an AVX-512BW nibble-LUT +
// sad_epu8 fallback. The flavor is picked once per process from the probe:
// the backend is admissible on any F/BW part, and Ice-Lake-class machines
// get the native popcount without a separate backend.
#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <cstring>

#include "kernels_detail.hpp"

// GCC 12's unmasked AVX-512 intrinsics (shifts, broadcasts, extracts) are
// defined as masked builtins whose pass-through operand is
// _mm512_undefined_epi32() / _mm256_undefined_si256() — a deliberately
// uninitialized dummy that is fully dead (the write mask is all-ones) but
// still trips -Werror={,maybe-}uninitialized once inlined here, because
// those are middle-end warnings that ignore the system-header location.
// Suppress the two warnings for this TU only; clang's intrinsics don't
// have the dummy operand.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features& features) { return features.avx512_usable(); }

/// VPOPCNTDQ flavor gate, probed once (cannot change within a process).
bool use_vpopcnt() {
    static const bool value = cpu().avx512vpopcntdq;
    return value;
}

// --- TU-local helpers ----------------------------------------------------

/// argmin2 update (rows fed in ascending order keep the first-wins rule).
void argmin2_update(argmin2_result& r, std::size_t row, std::uint64_t distance) {
    if (distance < r.distance) {
        r.runner_up = r.distance;
        r.distance = distance;
        r.index = row;
    } else if (distance < r.runner_up) {
        r.runner_up = distance;
    }
}

// --- image-blocked panel kernel ------------------------------------------

/// Add the u8 counters of `counters` into dst[0..64), restricted to the
/// lanes set in `valid` (zero-extended 16 at a time; masked loads and
/// stores never touch accumulators past a ragged slice).
void flush_counters(__m512i counters, __mmask64 valid, std::int32_t* dst) {
    const __m128i parts[4] = {
        _mm512_extracti32x4_epi32(counters, 0), _mm512_extracti32x4_epi32(counters, 1),
        _mm512_extracti32x4_epi32(counters, 2), _mm512_extracti32x4_epi32(counters, 3)};
    for (int k = 0; k < 4; ++k) {
        const auto lanes = static_cast<__mmask16>(valid >> (16 * k));
        std::int32_t* acc = dst + 16 * k;
        const __m512i sum = _mm512_add_epi32(_mm512_maskz_loadu_epi32(lanes, acc),
                                             _mm512_cvtepu8_epi32(parts[k]));
        _mm512_mask_storeu_epi32(acc, lanes, sum);
    }
}

/// Register tile: NB images x NV 64-dimension vectors of one panel slice,
/// u8 counters flushed every 255 pixels. Per pixel the NV threshold
/// vectors are loaded once and compared against every image's intensity
/// (one cmpge_epu8 to a mask, one masked byte subtract of -1). The
/// intensities of the 255-pixel chunk are pre-splatted into dwords so the
/// per-image broadcast is a plain load, keeping the shuffle port free for
/// the compares. With Ragged, the last vector loads only the lanes set in
/// `last` and flushes only those.
template <int NB, int NV, bool Ragged>
void geq_panel_tile(const std::uint8_t* q, std::size_t npix, const std::uint8_t* slice,
                    std::size_t width, __mmask64 last, std::size_t dim,
                    std::int32_t* out) {
    const __m512i minus_one = _mm512_set1_epi8(-1);
    alignas(64) std::uint32_t splats[255 * NB];
    for (std::size_t p0 = 0; p0 < npix; p0 += 255) {
        const std::size_t count = npix - p0 < 255 ? npix - p0 : 255;
        for (std::size_t p = 0; p < count; ++p) {
            for (int i = 0; i < NB; ++i) {
                splats[p * NB + i] = 0x01010101u * q[i * npix + p0 + p];
            }
        }
        __m512i counters[NB][NV];
        for (int i = 0; i < NB; ++i) {
            for (int v = 0; v < NV; ++v) counters[i][v] = _mm512_setzero_si512();
        }
        const std::uint8_t* row = slice + p0 * width;
        for (std::size_t p = 0; p < count; ++p, row += width) {
            __m512i x[NV];
            for (int v = 0; v < NV; ++v) {
                x[v] = Ragged && v == NV - 1 ? _mm512_maskz_loadu_epi8(last, row + 64 * v)
                                             : _mm512_loadu_si512(row + 64 * v);
            }
            for (int i = 0; i < NB; ++i) {
                const __m512i vq = _mm512_set1_epi32(static_cast<int>(splats[p * NB + i]));
                for (int v = 0; v < NV; ++v) {
                    counters[i][v] = _mm512_mask_sub_epi8(
                        counters[i][v], _mm512_cmpge_epu8_mask(vq, x[v]), counters[i][v],
                        minus_one);
                }
            }
        }
        for (int i = 0; i < NB; ++i) {
            for (int v = 0; v < NV; ++v) {
                flush_counters(counters[i][v], Ragged && v == NV - 1 ? last : ~__mmask64{0},
                               out + i * dim + 64 * v);
            }
        }
    }
}

/// One panel for NB images: a full panel is one 4-vector slice; a ragged
/// last panel runs single vectors plus one masked vector for its < 64
/// trailing dimensions.
template <int NB>
void geq_panel(const std::uint8_t* q, std::size_t npix, const std::uint8_t* panel,
               std::size_t width, std::size_t dim, std::int32_t* out) {
    std::size_t j = 0;
    for (; j + 256 <= width; j += 256) {
        geq_panel_tile<NB, 4, false>(q, npix, panel + j, width, 0, dim, out + j);
    }
    for (; j + 64 <= width; j += 64) {
        geq_panel_tile<NB, 1, false>(q, npix, panel + j, width, 0, dim, out + j);
    }
    if (j < width) {
        const __mmask64 last = (__mmask64{1} << (width - j)) - 1;
        geq_panel_tile<NB, 1, true>(q, npix, panel + j, width, last, dim, out + j);
    }
}

// --- unary-LUT panel kernel ----------------------------------------------
//
// With thresholds and intensities <= 15, one 16-byte table per pixel
// answers the comparison for eight images at once: bit i of table[t] is
// q_i >= t, i.e. the eight images' thermometer codes (the paper's unary
// stream rows) transposed. One vpshufb of 64 stored thresholds through
// that table yields 64 dimensions x 8 images of comparison bits, and a
// Harley-Seal carry-save tree (two vpternlog per adder) counts 32 pixels'
// bit-lanes at a time into vertical counter planes. The planes are added into the
// int32 output once per pixel chunk, so the per-(image, pixel, dimension)
// work is a fraction of one bit operation.

/// Images answered by one table lookup (the bits of a byte).
constexpr std::size_t lut_group_images = 8;

/// Below this many images a group's lookups are mostly idle bit-lanes, and
/// the compare tiles are faster (measured, 784 pixels x 8192 dimensions:
/// 0.8-0.9x at three or four images, 1.2x at five).
constexpr std::size_t lut_min_images = 5;

/// Pixels per carry-save group and per counter flush: 31 groups of 32, so a
/// chunk's count (<= 992) fits the ten vertical counter planes.
constexpr std::size_t lut_group_pixels = 32;
constexpr std::size_t lut_chunk_pixels = 31 * lut_group_pixels;
constexpr int lut_planes = 10;

/// Fill the unary tables of one group of g <= 8 images: 16 bytes per pixel
/// at tables + 16 * p, bit i of byte t set iff q[i * npix + p] >= t. Four
/// pixels per step: a dword splat plus an in-lane byte shuffle broadcasts
/// pixel k's intensity across 128-bit lane k, one compare against 0..15
/// gives its thermometer code, and a masked add sets bit i. Pixels from
/// npix up to the next multiple of 32 get all-zero tables, so a partial
/// carry-save group counts nothing for them.
void build_unary_tables(const std::uint8_t* q, std::size_t npix, std::size_t g,
                        std::uint8_t* tables) {
    const __m512i levels = _mm512_broadcast_i32x4(
        _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    const __m512i lane_pixel =
        _mm512_set_epi32(0x03030303, 0x03030303, 0x03030303, 0x03030303, 0x02020202,
                         0x02020202, 0x02020202, 0x02020202, 0x01010101, 0x01010101,
                         0x01010101, 0x01010101, 0, 0, 0, 0);
    const std::size_t padded = (npix + lut_group_pixels - 1) / lut_group_pixels *
                               lut_group_pixels;
    for (std::size_t p = 0; p < padded; p += 4) {
        __m512i table = _mm512_setzero_si512();
        for (std::size_t i = 0; i < g && p < npix; ++i) {
            std::uint32_t four = 0;
            if (p + 4 <= npix) {
                std::memcpy(&four, q + i * npix + p, 4);
            } else {
                for (std::size_t k = 0; p + k < npix; ++k) {
                    four |= std::uint32_t{q[i * npix + p + k]} << (8 * k);
                }
            }
            const __m512i splat = _mm512_shuffle_epi8(
                _mm512_set1_epi32(static_cast<int>(four)), lane_pixel);
            table = _mm512_mask_add_epi8(table, _mm512_cmpge_epu8_mask(splat, levels),
                                         table, _mm512_set1_epi8(static_cast<char>(1u << i)));
        }
        if (p + 4 > npix) {
            // Lanes of pixels past npix were built from zero intensities;
            // clear them so they count nothing.
            const std::size_t live = p < npix ? npix - p : 0;
            table = _mm512_maskz_mov_epi8(
                live == 0 ? __mmask64{0} : (__mmask64{1} << (16 * live)) - 1, table);
        }
        _mm512_storeu_si512(tables + 16 * p, table);
    }
}

/// Carry-save adder over bit-lanes: (carry, sum) = a + b + c. The carry is
/// taken from (a, b, sum) rather than (a, b, c), so each of the two
/// vpternlog can overwrite an input that is dead afterwards (c, then b)
/// and the adder needs no register copy.
inline void csa(__m512i& carry, __m512i& sum, __m512i a, __m512i b, __m512i c) {
    const __m512i s = _mm512_ternarylogic_epi32(a, b, c, 0x96); // a ^ b ^ c
    carry = _mm512_ternarylogic_epi32(a, b, s, 0xD4);           // majority(a, b, c)
    sum = s;
}

/// Count one group of 32 pixels into the vertical counter planes of NV
/// 64-dimension vectors. plane[j] holds bit j of every bit-lane's count:
/// two 16-input Harley-Seal trees carry into planes 0-3, their weight-16
/// outputs meet plane 4 in one more adder, and the weight-32 carry ripples
/// through planes 5-9. Rows of pixels at or past `valid` (Partial) are
/// redirected to the group's first row: their tables are zero, so their
/// lookups are zero whatever the row holds.
template <int NV, bool Ragged, bool Partial>
void lut_count_group(const std::uint8_t* tables, const std::uint8_t* row,
                     std::size_t width, std::size_t valid, __mmask64 last,
                     __m512i (&plane)[lut_planes][NV]) {
    for (int v = 0; v < NV; ++v) {
        const auto lookup = [&](std::size_t k) {
            const std::uint8_t* r = !Partial || k < valid ? row + k * width : row;
            const __m512i thresholds = Ragged && v == NV - 1
                                           ? _mm512_maskz_loadu_epi8(last, r + 64 * v)
                                           : _mm512_loadu_si512(r + 64 * v);
            const __m512i table = _mm512_broadcast_i32x4(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(tables + 16 * k)));
            return _mm512_shuffle_epi8(table, thresholds);
        };
        __m512i& ones = plane[0][v];
        __m512i& twos = plane[1][v];
        __m512i& fours = plane[2][v];
        __m512i& eights = plane[3][v];
        const auto tree16 = [&](std::size_t k) {
            __m512i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
            csa(twos_a, ones, ones, lookup(k + 0), lookup(k + 1));
            csa(twos_b, ones, ones, lookup(k + 2), lookup(k + 3));
            csa(fours_a, twos, twos, twos_a, twos_b);
            csa(twos_a, ones, ones, lookup(k + 4), lookup(k + 5));
            csa(twos_b, ones, ones, lookup(k + 6), lookup(k + 7));
            csa(fours_b, twos, twos, twos_a, twos_b);
            csa(eights_a, fours, fours, fours_a, fours_b);
            csa(twos_a, ones, ones, lookup(k + 8), lookup(k + 9));
            csa(twos_b, ones, ones, lookup(k + 10), lookup(k + 11));
            csa(fours_a, twos, twos, twos_a, twos_b);
            csa(twos_a, ones, ones, lookup(k + 12), lookup(k + 13));
            csa(twos_b, ones, ones, lookup(k + 14), lookup(k + 15));
            csa(fours_b, twos, twos, twos_a, twos_b);
            csa(eights_b, fours, fours, fours_a, fours_b);
            csa(sixteens, eights, eights, eights_a, eights_b);
            return sixteens;
        };
        const __m512i sixteens_a = tree16(0);
        const __m512i sixteens_b = tree16(16);
        __m512i carry;
        csa(carry, plane[4][v], plane[4][v], sixteens_a, sixteens_b);
        for (int j = 5; j < lut_planes; ++j) {
            const __m512i next = _mm512_and_si512(plane[j][v], carry);
            plane[j][v] = _mm512_xor_si512(plane[j][v], carry);
            carry = next;
        }
    }
}

/// Add image i's counts (bit i of every byte of the planes) into dst[0..64),
/// restricted to the lanes set in `valid`. The low eight planes assemble
/// into a byte per dimension and planes 8-9 into a second one; both are
/// zero-extended 16 lanes at a time.
template <int NV>
void lut_flush(const __m512i (&plane)[lut_planes][NV], int v, std::size_t i,
               __mmask64 valid, std::int32_t* dst) {
    const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << i));
    __m512i low = _mm512_setzero_si512();
    __m512i high = _mm512_setzero_si512();
    for (int j = 0; j < lut_planes; ++j) {
        const __mmask64 set = _mm512_test_epi8_mask(plane[j][v], bit);
        __m512i& part = j < 8 ? low : high;
        part = _mm512_mask_add_epi8(part, set, part,
                                    _mm512_set1_epi8(static_cast<char>(1u << (j % 8))));
    }
    const __m128i lows[4] = {
        _mm512_extracti32x4_epi32(low, 0), _mm512_extracti32x4_epi32(low, 1),
        _mm512_extracti32x4_epi32(low, 2), _mm512_extracti32x4_epi32(low, 3)};
    const __m128i highs[4] = {
        _mm512_extracti32x4_epi32(high, 0), _mm512_extracti32x4_epi32(high, 1),
        _mm512_extracti32x4_epi32(high, 2), _mm512_extracti32x4_epi32(high, 3)};
    for (int k = 0; k < 4; ++k) {
        const auto lanes = static_cast<__mmask16>(valid >> (16 * k));
        std::int32_t* acc = dst + 16 * k;
        const __m512i count =
            _mm512_add_epi32(_mm512_cvtepu8_epi32(lows[k]),
                             _mm512_slli_epi32(_mm512_cvtepu8_epi32(highs[k]), 8));
        _mm512_mask_storeu_epi32(
            acc, lanes, _mm512_add_epi32(_mm512_maskz_loadu_epi32(lanes, acc), count));
    }
}

/// One panel slice of NV 64-dimension vectors for a group of g images:
/// carry-save count every pixel chunk, then flush each image's counts.
template <int NV, bool Ragged>
void lut_panel_tile(const std::uint8_t* tables, std::size_t npix, std::size_t g,
                    const std::uint8_t* slice, std::size_t width, __mmask64 last,
                    std::size_t dim, std::int32_t* out) {
    for (std::size_t c0 = 0; c0 < npix; c0 += lut_chunk_pixels) {
        const std::size_t c_end = npix - c0 < lut_chunk_pixels ? npix : c0 + lut_chunk_pixels;
        __m512i plane[lut_planes][NV];
        for (int j = 0; j < lut_planes; ++j) {
            for (int v = 0; v < NV; ++v) plane[j][v] = _mm512_setzero_si512();
        }
        std::size_t p = c0;
        for (; p + lut_group_pixels <= c_end; p += lut_group_pixels) {
            lut_count_group<NV, Ragged, false>(tables + 16 * p, slice + p * width, width,
                                               lut_group_pixels, last, plane);
        }
        if (p < c_end) {
            lut_count_group<NV, Ragged, true>(tables + 16 * p, slice + p * width, width,
                                              c_end - p, last, plane);
        }
        for (int v = 0; v < NV; ++v) {
            for (std::size_t i = 0; i < g; ++i) {
                lut_flush(plane, v, i, Ragged && v == NV - 1 ? last : ~__mmask64{0},
                          out + i * dim + 64 * v);
            }
        }
    }
}

/// One panel for a table group: a full panel is one 4-vector slice; a
/// ragged last panel runs single vectors plus one masked vector for its
/// < 64 trailing dimensions.
void lut_panel(const std::uint8_t* tables, std::size_t npix, std::size_t g,
               const std::uint8_t* panel, std::size_t width, std::size_t dim,
               std::int32_t* out) {
    std::size_t j = 0;
    for (; j + 256 <= width; j += 256) {
        lut_panel_tile<4, false>(tables, npix, g, panel + j, width, 0, dim, out + j);
    }
    for (; j + 64 <= width; j += 64) {
        lut_panel_tile<1, false>(tables, npix, g, panel + j, width, 0, dim, out + j);
    }
    if (j < width) {
        const __mmask64 last = (__mmask64{1} << (width - j)) - 1;
        lut_panel_tile<1, true>(tables, npix, g, panel + j, width, last, dim, out + j);
    }
}

/// Panel-major image-blocked encode: panels outermost so one panel stays
/// cache-resident while every image group streams over it. With
/// max_value <= 15 the images run through the unary-LUT kernel in groups
/// of eight (a trailing group of five to seven too), their tables built
/// once per call; the other images — all of them above 16 levels, or a
/// trailing one to four — take the compare tiles in blocks of four.
void geq_block_accumulate(const std::uint8_t* q, std::size_t npix, std::size_t n_images,
                          const std::uint8_t* panels, std::size_t dim,
                          std::int32_t* out, std::uint8_t max_value) {
    static_assert(bank_panel_dims == 256, "full panels are one 4 x 64-lane slice");
    std::size_t lut_images = 0;
    if (max_value <= 15) {
        const std::size_t rest = n_images % lut_group_images;
        lut_images = n_images - (rest < lut_min_images ? rest : 0);
    }
    const std::size_t groups = (lut_images + lut_group_images - 1) / lut_group_images;
    const auto group_size = [&](std::size_t k) {
        const std::size_t left = lut_images - k * lut_group_images;
        return left < lut_group_images ? left : lut_group_images;
    };
    const std::size_t table_bytes =
        16 * ((npix + lut_group_pixels - 1) / lut_group_pixels * lut_group_pixels);
    std::uint8_t* tables = groups > 0 ? thread_scratch(groups * table_bytes) : nullptr;
    for (std::size_t k = 0; k < groups; ++k) {
        build_unary_tables(q + k * lut_group_images * npix, npix, group_size(k),
                           tables + k * table_bytes);
    }
    for (std::size_t d0 = 0; d0 < dim; d0 += bank_panel_dims) {
        const std::size_t width = dim - d0 < bank_panel_dims ? dim - d0 : bank_panel_dims;
        const std::uint8_t* panel = panels + d0 * npix;
        for (std::size_t k = 0; k < groups; ++k) {
            lut_panel(tables + k * table_bytes, npix, group_size(k), panel, width, dim,
                      out + k * lut_group_images * dim + d0);
        }
        std::size_t i = lut_images;
        for (; i + 4 <= n_images; i += 4) {
            geq_panel<4>(q + i * npix, npix, panel, width, dim, out + i * dim + d0);
        }
        const std::uint8_t* q_rest = q + i * npix;
        std::int32_t* out_rest = out + i * dim + d0;
        switch (n_images - i) {
        case 3: geq_panel<3>(q_rest, npix, panel, width, dim, out_rest); break;
        case 2: geq_panel<2>(q_rest, npix, panel, width, dim, out_rest); break;
        case 1: geq_panel<1>(q_rest, npix, panel, width, dim, out_rest); break;
        default: break;
        }
    }
}

// --- rematerializing encode kernel ----------------------------------------

/// Gray-code 16-blocks as one 16-lane vector: the broadcast base state is
/// XORed with the per-pixel delta table (gray(16m + k) = gray(16m) ^
/// gray(k)), the unsigned compare against the pixel's bound is one
/// cmple_epu32 to a __mmask16, and a masked subtract of -1 adds the
/// comparison results into the int32 out tile. Unaligned head/tail run the
/// serial Gray-code recurrence — pure integer accumulation, bit-identical
/// to the scalar reference. No popcount involved, so no flavor split.
void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    const __m512i minus_one32 = _mm512_set1_epi32(-1);
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
        alignas(64) std::uint32_t delta[16];
        delta[0] = 0;
        for (unsigned k = 1; k < 16; ++k) {
            delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
        }
        const __m512i dv = _mm512_load_si512(delta);
        const __m512i vb = _mm512_set1_epi32(static_cast<int>(bound));
        for (; index + 16 <= end; index += 16, j += 16) {
            const __m512i x =
                _mm512_xor_si512(_mm512_set1_epi32(static_cast<int>(state)), dv);
            const __mmask16 le = _mm512_cmple_epu32_mask(x, vb);
            const __m512i o = _mm512_loadu_si512(out + j);
            _mm512_storeu_si512(out + j,
                                _mm512_mask_sub_epi32(o, le, o, minus_one32));
            // Block step 16m -> 16(m+1): gray difference bits {3, ctz(m+1)+4}.
            state ^= v[3] ^ v[std::countr_zero((index >> 4) + 1) + 4];
        }
        for (; index < end; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
    }
}

// --- sign binarize --------------------------------------------------------

/// Sixteen int32 sign bits per compare-to-mask (AVX-512F — no DQ movepi
/// needed), so one output word is four loads + mask shifts.
void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    const __m512i zero = _mm512_setzero_si512();
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            const __m512i x = _mm512_loadu_si512(v + d + 16 * i);
            const __mmask16 negative = _mm512_cmp_epi32_mask(x, zero, _MM_CMPINT_LT);
            bits |= static_cast<std::uint64_t>(
                        static_cast<std::uint16_t>(negative))
                    << (16 * i);
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

// --- XOR-popcount family (two flavors, runtime-selected) ------------------

/// Horizontal sum of the eight u64 lanes. Not _mm512_reduce_add_epi64: GCC
/// 12 expands that through _mm256_undefined_si256, whose self-initialized
/// dummy trips -Werror=uninitialized/-Wmaybe-uninitialized in UHD_WERROR
/// builds — reduce through extracts so every value is defined.
std::uint64_t reduce_add_u64(__m512i v) {
    const __m256i sum256 = _mm256_add_epi64(_mm512_castsi512_si256(v),
                                            _mm512_extracti64x4_epi64(v, 1));
    const __m128i sum128 = _mm_add_epi64(_mm256_castsi256_si128(sum256),
                                         _mm256_extracti128_si256(sum256, 1));
    const __m128i swapped = _mm_unpackhi_epi64(sum128, sum128);
    return static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_add_epi64(sum128, swapped)));
}

/// Per-64-lane popcount of a 512-bit vector with the pshufb nibble LUT and
/// sad_epu8 — the AVX-512BW fallback for parts without VPOPCNTDQ.
__m512i popcount512_lut(__m512i x) {
    const __m512i low_nibble = _mm512_set1_epi8(0x0F);
    const __m512i lut = _mm512_broadcast_i32x4(
        _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(x, low_nibble));
    const __m512i hi = _mm512_shuffle_epi8(
        lut, _mm512_and_si512(_mm512_srli_epi32(x, 4), low_nibble));
    return _mm512_sad_epu8(_mm512_add_epi8(lo, hi), _mm512_setzero_si512());
}

#define UHD_AVX512_FN(name) name##_lut
#define UHD_AVX512_POPCNT(x) popcount512_lut(x)
#include "kernels_avx512_family.inc"
#undef UHD_AVX512_FN
#undef UHD_AVX512_POPCNT

#pragma GCC push_options
#pragma GCC target("avx512vpopcntdq")
#define UHD_AVX512_FN(name) name##_vpopcnt
#define UHD_AVX512_POPCNT(x) _mm512_popcnt_epi64(x)
#include "kernels_avx512_family.inc"
#undef UHD_AVX512_FN
#undef UHD_AVX512_POPCNT
#pragma GCC pop_options

// Table entries dispatch on the probed flavor. Both flavors compute exact
// integer popcounts, so the choice is invisible to results — only to speed.

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    if (use_vpopcnt()) {
        hamming_block_extend_vpopcnt(queries, query_words, n_queries, rows,
                                     row_words, from_word, to_word, n_rows,
                                     distances);
    } else {
        hamming_block_extend_lut(queries, query_words, n_queries, rows, row_words,
                                 from_word, to_word, n_rows, distances);
    }
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    if (use_vpopcnt()) {
        hamming_block_argmin2_prefix_vpopcnt(queries, query_words, n_queries, rows,
                                             row_words, prefix_words, n_rows,
                                             results);
    } else {
        hamming_block_argmin2_prefix_lut(queries, query_words, n_queries, rows,
                                         row_words, prefix_words, n_rows, results);
    }
}

// --- blocked int32 dot kernels --------------------------------------------
//
// Identical fixed 4-lane algorithm as the portable bodies (simd.hpp): the
// lane split pins the FP addition order, so the -mavx512* compilation may
// vectorize the lanes but cannot change the result.

double sum_squares_i32(const std::int32_t* v, std::size_t n) {
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

double dot_i32(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
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

std::int64_t masked_sum_i32(const std::uint64_t* mask, const std::int32_t* v,
                            std::size_t n) {
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

constexpr kernel_table table{
    "avx512",          supported,
    geq_block_accumulate,
    geq_rematerialize_accumulate,
    sign_binarize,
    hamming_block_extend,
    hamming_block_argmin2_prefix,
    sum_squares_i32,   dot_i32,
    masked_sum_i32,
};

} // namespace

const kernel_table& avx512_table() noexcept { return table; }

} // namespace uhd::kernels::detail

#else
#error "kernels_avx512.cpp requires -mavx512f -mavx512bw (set per-file by src/CMakeLists.txt)"
#endif // __AVX512F__ && __AVX512BW__
