// The SWAR backend: 64-bit word-parallel kernels with no ISA requirement
// beyond a 64-bit integer unit — the fast default for generic builds and
// non-x86 targets. The geq kernel has a value precondition (all operands
// <= 127); when a caller's max_value exceeds it, the table entry falls back
// to the pinned reference body for that call rather than miscomputing.
#include <cstdint>

#include "kernels_detail.hpp"
#include "uhd/common/simd.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features&) { return true; }

void geq_block_accumulate(const std::uint8_t* q, std::size_t npix,
                          std::size_t n_images, const std::uint8_t* panels,
                          std::size_t dim, std::int32_t* out, std::uint8_t max_value) {
    if (max_value <= simd::swar_max_value) {
        simd::geq_block_accumulate_swar(q, npix, n_images, panels, dim, out);
    } else {
        simd::geq_block_accumulate_reference(q, npix, n_images, panels, dim, out);
    }
}

void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    // u32 compares have no SWAR packing win; the blocked portable body (16
    // independent lanes per Gray block) is the fast generic implementation.
    simd::geq_rematerialize_accumulate_portable(directions, dir_words, shifts,
                                                bounds, npix, d_begin, dim_count,
                                                out);
}

void count_table_accumulate(const std::uint16_t* counts, std::size_t n_tables,
                            std::size_t npix, std::size_t levels,
                            const std::uint8_t* panels, std::size_t dim,
                            std::int32_t* out) {
    // A byte shuffle has no u64 counterpart; the portable gather is the
    // generic implementation at every level count.
    simd::count_table_accumulate_portable(counts, n_tables, npix, levels, panels, dim,
                                           out);
}

void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    simd::sign_binarize_swar(v, n, words);
}

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    simd::hamming_block_extend_portable(queries, query_words, n_queries, rows,
                                        row_words, from_word, to_word, n_rows,
                                        distances);
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    simd::hamming_block_argmin2_prefix_portable(queries, query_words, n_queries,
                                                rows, row_words, prefix_words,
                                                n_rows, results);
}

double sum_squares_i32(const std::int32_t* v, std::size_t n) {
    return simd::sum_squares_i32(v, n);
}

double dot_i32(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
    return simd::dot_i32(a, b, n);
}

std::int64_t masked_sum_i32(const std::uint64_t* mask, const std::int32_t* v,
                            std::size_t n) {
    return simd::masked_sum_i32(mask, v, n);
}

constexpr kernel_table table{
    "swar",            supported,
    geq_block_accumulate,
    geq_rematerialize_accumulate,
    count_table_accumulate,
    sign_binarize,
    hamming_block_extend,
    hamming_block_argmin2_prefix,
    sum_squares_i32,   dot_i32,
    masked_sum_i32,
};

} // namespace

const kernel_table& swar_table() noexcept { return table; }

} // namespace uhd::kernels::detail
