// The scalar backend: the pinned byte-at-a-time oracles wired into a
// kernel_table. This is the permanent reference backend — UHD_BACKEND=scalar
// runs the exact code every wider backend is equivalence-tested against, so
// a cross-backend mismatch can always be bisected against it. It is
// admissible everywhere and deliberately slow: the pinned kernels refuse
// auto-vectorization (UHD_SCALAR_REFERENCE) to stay an honest baseline.
#include <cstdint>

#include "kernels_detail.hpp"
#include "uhd/common/simd.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features&) { return true; }

void geq_block_accumulate(const std::uint8_t* q, std::size_t npix,
                          std::size_t n_images, const std::uint8_t* panels,
                          std::size_t dim, std::int32_t* out,
                          std::uint8_t /*max_value*/) {
    simd::geq_block_accumulate_reference(q, npix, n_images, panels, dim, out);
}

void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    simd::geq_rematerialize_accumulate_reference(directions, dir_words, shifts,
                                                 bounds, npix, d_begin, dim_count,
                                                 out);
}

void count_table_accumulate(const std::uint16_t* counts, std::size_t n_tables,
                            std::size_t npix, std::size_t levels,
                            const std::uint8_t* panels, std::size_t dim,
                            std::int32_t* out) {
    simd::count_table_accumulate_reference(counts, n_tables, npix, levels, panels, dim,
                                           out);
}

void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    simd::sign_binarize_reference(v, n, words);
}

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    simd::hamming_block_extend_reference(queries, query_words, n_queries, rows,
                                         row_words, from_word, to_word, n_rows,
                                         distances);
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    simd::hamming_block_argmin2_prefix_reference(queries, query_words, n_queries,
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
    "scalar",          supported,
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

const kernel_table& scalar_table() noexcept { return table; }

} // namespace uhd::kernels::detail
