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
    for (; j < width; ++j) {
        for (int i = 0; i < NB; ++i) {
            std::int32_t count = 0;
            for (std::size_t p = 0; p < npix; ++p) {
                count += q[i * npix + p] >= panel[p * width + j] ? 1 : 0;
            }
            out[i * dim + j] += count;
        }
    }
}

/// Panel-major image-blocked encode: panels outermost so one panel stays
/// cache-resident while every block of four images streams over it.
void geq_block_accumulate(const std::uint8_t* q, std::size_t npix, std::size_t n_images,
                          const std::uint8_t* panels, std::size_t dim,
                          std::int32_t* out, std::uint8_t /*max_value*/) {
    for (std::size_t d0 = 0; d0 < dim; d0 += bank_panel_dims) {
        const std::size_t width = dim - d0 < bank_panel_dims ? dim - d0 : bank_panel_dims;
        const std::uint8_t* panel = panels + d0 * npix;
        std::size_t i = 0;
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
