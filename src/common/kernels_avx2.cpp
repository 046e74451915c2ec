// The AVX2 backend. This translation unit is compiled with a per-file
// -mavx2 (see src/CMakeLists.txt) so a generic build — no -march=native,
// no global -mavx2 — still carries these kernels; whether they run is
// decided by the runtime cpu_features probe (CPU AVX2 + OS YMM state).
//
// The TU is deliberately hermetic: every helper is a TU-local static in an
// anonymous namespace, and it does not include uhd/common/simd.hpp. A
// header-inline function odr-used here would be emitted under -mavx2 as a
// COMDAT candidate, and the linker is free to pick that copy for the whole
// program — which would execute AVX2 code on machines the probe rejected.
// Tail loops and the shared 4-lane double-accumulation algorithm are
// therefore (re)stated locally; the dot/sum kernels run the *identical*
// fixed-lane-order algorithm as the portable bodies, so their results are
// bit-identical across backends (IEEE semantics are preserved — -mavx2
// does not license FP reassociation).
#ifdef __AVX2__

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "kernels_detail.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features& features) { return features.avx2_usable(); }

// --- image-blocked panel kernel ------------------------------------------

/// Add 32 u8 counters into 32 int32 accumulators (zero-extended 8 at a
/// time).
void flush_counters(__m256i counters, std::int32_t* dst) {
    const __m128i lo = _mm256_castsi256_si128(counters);
    const __m128i hi = _mm256_extracti128_si256(counters, 1);
    const __m128i parts[4] = {lo, _mm_srli_si128(lo, 8), hi, _mm_srli_si128(hi, 8)};
    for (int k = 0; k < 4; ++k) {
        __m256i* acc = reinterpret_cast<__m256i*>(dst + 8 * k);
        _mm256_storeu_si256(acc, _mm256_add_epi32(_mm256_loadu_si256(acc),
                                                  _mm256_cvtepu8_epi32(parts[k])));
    }
}

/// Register tile: NB images x NV 32-dimension vectors of one panel slice,
/// u8 counters flushed every 255 pixels. Per pixel the NV threshold
/// vectors are loaded once and compared against every image's broadcast
/// intensity: the unsigned test q >= x is max_epu8(q, x) == q, and
/// subtracting the 0xFF mask adds 1.
template <int NB, int NV>
void geq_panel_tile(const std::uint8_t* q, std::size_t npix, const std::uint8_t* slice,
                    std::size_t width, std::size_t dim, std::int32_t* out) {
    for (std::size_t p0 = 0; p0 < npix; p0 += 255) {
        const std::size_t p_end = npix - p0 < 255 ? npix : p0 + 255;
        __m256i counters[NB][NV];
        for (int i = 0; i < NB; ++i) {
            for (int v = 0; v < NV; ++v) counters[i][v] = _mm256_setzero_si256();
        }
        for (std::size_t p = p0; p < p_end; ++p) {
            const std::uint8_t* row = slice + p * width;
            __m256i x[NV];
            for (int v = 0; v < NV; ++v) {
                x[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 32 * v));
            }
            for (int i = 0; i < NB; ++i) {
                const __m256i vq = _mm256_set1_epi8(static_cast<char>(q[i * npix + p]));
                for (int v = 0; v < NV; ++v) {
                    const __m256i mask = _mm256_cmpeq_epi8(_mm256_max_epu8(vq, x[v]), vq);
                    counters[i][v] = _mm256_sub_epi8(counters[i][v], mask);
                }
            }
        }
        for (int i = 0; i < NB; ++i) {
            for (int v = 0; v < NV; ++v) {
                flush_counters(counters[i][v], out + i * dim + 32 * v);
            }
        }
    }
}

/// The ragged < 32 trailing dimensions [j, width) of a panel for n
/// images, one dimension at a time.
void geq_tail(const std::uint8_t* q, std::size_t npix, std::size_t n,
              const std::uint8_t* panel, std::size_t width, std::size_t j,
              std::size_t dim, std::int32_t* out) {
    for (; j < width; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            std::int32_t count = 0;
            for (std::size_t p = 0; p < npix; ++p) {
                count += q[i * npix + p] >= panel[p * width + j] ? 1 : 0;
            }
            out[i * dim + j] += count;
        }
    }
}

/// One panel for NB images: slices as wide as the register file allows
/// (8 counter vectors), then single vectors, then the ragged < 32 bytes
/// one dimension at a time.
template <int NB>
void geq_panel(const std::uint8_t* q, std::size_t npix, const std::uint8_t* panel,
               std::size_t width, std::size_t dim, std::int32_t* out) {
    constexpr int wide = NB == 1 ? 8 : NB == 2 ? 4 : 2;
    std::size_t j = 0;
    for (; j + 32 * wide <= width; j += 32 * wide) {
        geq_panel_tile<NB, wide>(q, npix, panel + j, width, dim, out + j);
    }
    for (; j + 32 <= width; j += 32) {
        geq_panel_tile<NB, 1>(q, npix, panel + j, width, dim, out + j);
    }
    geq_tail(q, npix, NB, panel, width, j, dim, out);
}

// --- unary-LUT panel kernel ----------------------------------------------
//
// The AVX-512 backend's unary-LUT design at 256 bits (see
// kernels_avx512.cpp): with thresholds and intensities <= 15, bit i of a
// pixel's 16-byte table entry t is q_i >= t for eight images, one vpshufb
// of 32 stored thresholds through the table (broadcast to both lanes)
// answers 32 dimensions x 8 images, and a Harley-Seal carry-save tree
// counts 32 pixels' bit-lanes into vertical counter planes, flushed into
// the int32 output once per pixel chunk. Without vpternlog each adder is
// five and/or/xor operations.

/// Images answered by one table lookup (the bits of a byte).
constexpr std::size_t lut_group_images = 8;

/// Below this many images a group's lookups are mostly idle bit-lanes, and
/// the compare tiles are faster (measured, 784 pixels: 0.5-0.9x at one or
/// two images, 1.2x at three).
constexpr std::size_t lut_min_images = 3;

/// Pixels per carry-save group and per counter flush: 31 groups of 32, so a
/// chunk's count (<= 992) fits the ten vertical counter planes.
constexpr std::size_t lut_group_pixels = 32;
constexpr std::size_t lut_chunk_pixels = 31 * lut_group_pixels;
constexpr int lut_planes = 10;

/// 32-dimension vectors per slice (each vector's tree runs in turn);
/// measured 5-10% faster than one or two vectors per slice.
constexpr int lut_slice_vectors = 4;

/// Fill the unary tables of one group of g <= 8 images: 16 bytes per pixel
/// at tables + 16 * p, bit i of byte t set iff q[i * npix + p] >= t. Two
/// pixels per step: a word splat plus an in-lane byte shuffle broadcasts
/// pixel k's intensity across 128-bit lane k, max + compare-equal against
/// 0..15 gives its thermometer code, and an and/or sets bit i. Pixels from
/// npix up to the next multiple of 32 get all-zero tables, so a partial
/// carry-save group counts nothing for them.
void build_unary_tables(const std::uint8_t* q, std::size_t npix, std::size_t g,
                        std::uint8_t* tables) {
    const __m256i levels = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                            14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                            12, 13, 14, 15);
    const __m256i lane_pixel = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                                0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                                1, 1, 1, 1);
    const std::size_t padded = (npix + lut_group_pixels - 1) / lut_group_pixels *
                               lut_group_pixels;
    for (std::size_t p = 0; p < padded; p += 2) {
        __m256i table = _mm256_setzero_si256();
        for (std::size_t i = 0; i < g && p < npix; ++i) {
            const std::uint8_t* row = q + i * npix + p;
            const int two = row[0] | (p + 1 < npix ? row[1] << 8 : 0);
            const __m256i splat =
                _mm256_shuffle_epi8(_mm256_set1_epi16(static_cast<short>(two)), lane_pixel);
            const __m256i geq = _mm256_cmpeq_epi8(_mm256_max_epu8(splat, levels), splat);
            table = _mm256_or_si256(
                table, _mm256_and_si256(geq, _mm256_set1_epi8(static_cast<char>(1u << i))));
        }
        if (p + 1 == npix) {
            // The second lane was built from a zero intensity; clear it so
            // the pixel past npix counts nothing.
            table = _mm256_and_si256(table, _mm256_setr_epi64x(-1, -1, 0, 0));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(tables + 16 * p), table);
    }
}

/// Carry-save adder over bit-lanes: (carry, sum) = a + b + c.
inline void csa(__m256i& carry, __m256i& sum, __m256i a, __m256i b, __m256i c) {
    const __m256i u = _mm256_xor_si256(a, b);
    carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    sum = _mm256_xor_si256(u, c);
}

/// Count one group of 32 pixels into the vertical counter planes of NV
/// 32-dimension vectors (plane[j] holds bit j of every bit-lane's count):
/// two 16-input Harley-Seal trees carry into planes 0-3, their weight-16
/// outputs meet plane 4 in one more adder, and the weight-32 carry ripples
/// through planes 5-9. Rows of pixels at or past `valid` (Partial) are
/// redirected to the group's first row: their tables are zero, so their
/// lookups are zero whatever the row holds.
template <int NV, bool Partial>
void lut_count_group(const std::uint8_t* tables, const std::uint8_t* row,
                     std::size_t width, std::size_t valid,
                     __m256i (&plane)[lut_planes][NV]) {
    for (int v = 0; v < NV; ++v) {
        const auto lookup = [&](std::size_t k) {
            const std::uint8_t* r = !Partial || k < valid ? row + k * width : row;
            const __m256i thresholds =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 32 * v));
            const __m256i table = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(tables + 16 * k)));
            return _mm256_shuffle_epi8(table, thresholds);
        };
        __m256i& ones = plane[0][v];
        __m256i& twos = plane[1][v];
        __m256i& fours = plane[2][v];
        __m256i& eights = plane[3][v];
        const auto tree16 = [&](std::size_t k) {
            __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
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
        const __m256i sixteens_a = tree16(0);
        const __m256i sixteens_b = tree16(16);
        __m256i carry;
        csa(carry, plane[4][v], plane[4][v], sixteens_a, sixteens_b);
        for (int j = 5; j < lut_planes; ++j) {
            const __m256i next = _mm256_and_si256(plane[j][v], carry);
            plane[j][v] = _mm256_xor_si256(plane[j][v], carry);
            carry = next;
        }
    }
}

/// Add image i's counts (bit i of every byte of the planes) into
/// dst[0..32). The low eight planes assemble into a byte per dimension and
/// planes 8-9 into a second one; both are zero-extended 8 lanes at a time.
template <int NV>
void lut_flush(const __m256i (&plane)[lut_planes][NV], int v, std::size_t i,
               std::int32_t* dst) {
    const __m256i bit = _mm256_set1_epi8(static_cast<char>(1u << i));
    __m256i low = _mm256_setzero_si256();
    __m256i high = _mm256_setzero_si256();
    for (int j = 0; j < lut_planes; ++j) {
        const __m256i set = _mm256_cmpeq_epi8(_mm256_and_si256(plane[j][v], bit), bit);
        __m256i& part = j < 8 ? low : high;
        part = _mm256_or_si256(
            part, _mm256_and_si256(set, _mm256_set1_epi8(static_cast<char>(1u << (j % 8)))));
    }
    const __m128i low_lanes[2] = {_mm256_castsi256_si128(low),
                                  _mm256_extracti128_si256(low, 1)};
    const __m128i high_lanes[2] = {_mm256_castsi256_si128(high),
                                   _mm256_extracti128_si256(high, 1)};
    for (int k = 0; k < 4; ++k) {
        const __m128i lows = k % 2 == 0 ? low_lanes[k / 2] : _mm_srli_si128(low_lanes[k / 2], 8);
        const __m128i highs =
            k % 2 == 0 ? high_lanes[k / 2] : _mm_srli_si128(high_lanes[k / 2], 8);
        __m256i* acc = reinterpret_cast<__m256i*>(dst + 8 * k);
        const __m256i count =
            _mm256_add_epi32(_mm256_cvtepu8_epi32(lows),
                             _mm256_slli_epi32(_mm256_cvtepu8_epi32(highs), 8));
        _mm256_storeu_si256(acc, _mm256_add_epi32(_mm256_loadu_si256(acc), count));
    }
}

/// One panel slice of NV 32-dimension vectors for a group of g images:
/// carry-save count every pixel chunk, then flush each image's counts.
template <int NV>
void lut_panel_tile(const std::uint8_t* tables, std::size_t npix, std::size_t g,
                    const std::uint8_t* slice, std::size_t width, std::size_t dim,
                    std::int32_t* out) {
    for (std::size_t c0 = 0; c0 < npix; c0 += lut_chunk_pixels) {
        const std::size_t c_end = npix - c0 < lut_chunk_pixels ? npix : c0 + lut_chunk_pixels;
        __m256i plane[lut_planes][NV];
        for (int j = 0; j < lut_planes; ++j) {
            for (int v = 0; v < NV; ++v) plane[j][v] = _mm256_setzero_si256();
        }
        std::size_t p = c0;
        for (; p + lut_group_pixels <= c_end; p += lut_group_pixels) {
            lut_count_group<NV, false>(tables + 16 * p, slice + p * width, width,
                                       lut_group_pixels, plane);
        }
        if (p < c_end) {
            lut_count_group<NV, true>(tables + 16 * p, slice + p * width, width, c_end - p,
                                      plane);
        }
        for (int v = 0; v < NV; ++v) {
            for (std::size_t i = 0; i < g; ++i) {
                lut_flush(plane, v, i, out + i * dim + 32 * v);
            }
        }
    }
}

/// One panel for a table group of g images: lut_slice_vectors-vector
/// slices, then single vectors, then the ragged < 32 dimensions one at a
/// time from q.
void lut_panel(const std::uint8_t* tables, const std::uint8_t* q, std::size_t npix,
               std::size_t g, const std::uint8_t* panel, std::size_t width,
               std::size_t dim, std::int32_t* out) {
    std::size_t j = 0;
    for (; j + 32 * lut_slice_vectors <= width; j += 32 * lut_slice_vectors) {
        lut_panel_tile<lut_slice_vectors>(tables, npix, g, panel + j, width, dim, out + j);
    }
    for (; j + 32 <= width; j += 32) {
        lut_panel_tile<1>(tables, npix, g, panel + j, width, dim, out + j);
    }
    geq_tail(q, npix, g, panel, width, j, dim, out);
}

/// Panel-major image-blocked encode: panels outermost so one panel stays
/// cache-resident while every image group streams over it. With
/// max_value <= 15 the images run through the unary-LUT kernel in groups
/// of eight (a trailing group of three to seven too), their tables built
/// once per call; the other images — all of them above 16 levels, or a
/// trailing one or two — take the compare tiles in blocks of four.
void geq_block_accumulate(const std::uint8_t* q, std::size_t npix, std::size_t n_images,
                          const std::uint8_t* panels, std::size_t dim,
                          std::int32_t* out, std::uint8_t max_value) {
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
            const std::size_t first = k * lut_group_images;
            lut_panel(tables + k * table_bytes, q + first * npix, npix, group_size(k), panel,
                      width, dim, out + first * dim + d0);
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

/// Gray-code 16-blocks as two 8-lane vectors: the broadcast base state is
/// XORed with the per-pixel delta table (gray(16m + k) = gray(16m) ^
/// gray(k)), the unsigned compare against the pixel's bound is
/// min_epu32 + cmpeq, and the -1/0 lane mask subtracts as +1/0 into the
/// int32 out tile. Unaligned head/tail run the serial Gray-code recurrence
/// — pure integer accumulation, bit-identical to the scalar reference.
void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
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
        alignas(32) std::uint32_t delta[16];
        delta[0] = 0;
        for (unsigned k = 1; k < 16; ++k) {
            delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
        }
        const __m256i dlo = _mm256_load_si256(reinterpret_cast<const __m256i*>(delta));
        const __m256i dhi =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(delta + 8));
        const __m256i vb = _mm256_set1_epi32(static_cast<int>(bound));
        for (; index + 16 <= end; index += 16, j += 16) {
            const __m256i base = _mm256_set1_epi32(static_cast<int>(state));
            const __m256i x0 = _mm256_xor_si256(base, dlo);
            const __m256i x1 = _mm256_xor_si256(base, dhi);
            const __m256i le0 = _mm256_cmpeq_epi32(_mm256_min_epu32(x0, vb), x0);
            const __m256i le1 = _mm256_cmpeq_epi32(_mm256_min_epu32(x1, vb), x1);
            __m256i* o0 = reinterpret_cast<__m256i*>(out + j);
            __m256i* o1 = reinterpret_cast<__m256i*>(out + j + 8);
            _mm256_storeu_si256(o0, _mm256_sub_epi32(_mm256_loadu_si256(o0), le0));
            _mm256_storeu_si256(o1, _mm256_sub_epi32(_mm256_loadu_si256(o1), le1));
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

/// movemask over eight int32 lanes yields eight sign bits per load, so one
/// output word is eight loads + shifts.
void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + d + 8 * i));
            const auto mask = static_cast<std::uint32_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(x)));
            bits |= static_cast<std::uint64_t>(mask) << (8 * i);
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

// --- query-block Hamming kernels ------------------------------------------

/// One nibble-LUT popcount step: per-64-lane bit counts of a 256-bit word
/// (per-byte counts <= 16; sad_epu8 folds them into four u64 lanes).
__m256i popcount256(__m256i x, __m256i lut, __m256i low_nibble) {
    const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_nibble));
    const __m256i hi = _mm256_shuffle_epi8(
        lut, _mm256_and_si256(_mm256_srli_epi32(x, 4), low_nibble));
    return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// popcount(a XOR b) with the nibble-LUT popcount, 4 words (256 bits) per
/// step: the per-row distance of the ragged tile edges and of the 1-3
/// query tail. Bit-exact with the portable word loop.
std::uint64_t xor_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
    const __m256i low_nibble = _mm256_set1_epi8(0x0F);
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
                         1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
        acc = _mm256_add_epi64(acc, popcount256(x, lut, low_nibble));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
    return total;
}

/// Register-blocked tile: XOR-popcount distances over words [from_word,
/// to_word) for a full 4-query x 2-row tile. Eight ymm accumulators live
/// across one pass over the two rows, 4 words (256 bits) per step; word
/// tails finish with scalar popcounts. Each row word is loaded once per
/// query tile — the cache-blocking the block kernels exist for.
void block_tile_4x2(const std::uint64_t* const q[4], const std::uint64_t* r0,
                    const std::uint64_t* r1, std::size_t from_word,
                    std::size_t to_word, std::uint64_t d[4][2]) {
    const __m256i low_nibble = _mm256_set1_epi8(0x0F);
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
                         1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    __m256i acc[4][2];
    for (int qi = 0; qi < 4; ++qi) {
        acc[qi][0] = _mm256_setzero_si256();
        acc[qi][1] = _mm256_setzero_si256();
    }
    std::size_t w = from_word;
    for (; w + 4 <= to_word; w += 4) {
        const __m256i r0v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + w));
        const __m256i r1v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + w));
        for (int qi = 0; qi < 4; ++qi) {
            const __m256i qv =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q[qi] + w));
            acc[qi][0] = _mm256_add_epi64(
                acc[qi][0], popcount256(_mm256_xor_si256(qv, r0v), lut, low_nibble));
            acc[qi][1] = _mm256_add_epi64(
                acc[qi][1], popcount256(_mm256_xor_si256(qv, r1v), lut, low_nibble));
        }
    }
    for (int qi = 0; qi < 4; ++qi) {
        for (int ri = 0; ri < 2; ++ri) {
            alignas(32) std::uint64_t lanes[4];
            _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[qi][ri]);
            d[qi][ri] = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        }
        for (std::size_t ww = w; ww < to_word; ++ww) {
            d[qi][0] += static_cast<std::uint64_t>(std::popcount(q[qi][ww] ^ r0[ww]));
            d[qi][1] += static_cast<std::uint64_t>(std::popcount(q[qi][ww] ^ r1[ww]));
        }
    }
}

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    const std::size_t span = to_word - from_word;
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* qp[4] = {
            queries + (q + 0) * query_words, queries + (q + 1) * query_words,
            queries + (q + 2) * query_words, queries + (q + 3) * query_words};
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            block_tile_4x2(qp, rows + row * row_words, rows + (row + 1) * row_words,
                           from_word, to_word, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] += d[qi][0];
                distances[(q + qi) * n_rows + row + 1] += d[qi][1];
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words + from_word;
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] +=
                    xor_popcount_words(qp[qi] + from_word, r0, span);
            }
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

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    for (std::size_t q = 0; q < n_queries; ++q) {
        results[q] = argmin2_result{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    }
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* qp[4] = {
            queries + (q + 0) * query_words, queries + (q + 1) * query_words,
            queries + (q + 2) * query_words, queries + (q + 3) * query_words};
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            block_tile_4x2(qp, rows + row * row_words, rows + (row + 1) * row_words,
                           0, prefix_words, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row, d[qi][0]);
                argmin2_update(results[q + qi], row + 1, d[qi][1]);
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words;
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row,
                               xor_popcount_words(qp[qi], r0, prefix_words));
            }
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

// --- blocked int32 dot kernels --------------------------------------------
//
// Identical fixed 4-lane algorithm as the portable bodies (simd.hpp): the
// lane split pins the FP addition order, so the -mavx2 compilation may
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
    "avx2",            supported,
    geq_block_accumulate,
    geq_rematerialize_accumulate,
    sign_binarize,
    hamming_block_extend,
    hamming_block_argmin2_prefix,
    sum_squares_i32,   dot_i32,
    masked_sum_i32,
};

} // namespace

const kernel_table& avx2_table() noexcept { return table; }

} // namespace uhd::kernels::detail

#else
#error "kernels_avx2.cpp requires -mavx2 (set per-file by src/CMakeLists.txt)"
#endif // __AVX2__
