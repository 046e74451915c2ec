// uhd::kernels — the runtime-dispatched kernel registry behind every hot
// path of the software datapath.
//
// The build compiles one translation unit per backend:
//   * scalar — the pinned byte-at-a-time oracles (kernels_scalar.cpp); the
//     permanent reference backend every other backend is measured and
//     tested against.
//   * swar   — portable 64-bit word-parallel kernels (kernels_swar.cpp);
//     admissible on any 64-bit machine, the generic-build fast default.
//   * avx2   — 256-bit kernels (kernels_avx2.cpp, compiled with a per-file
//     -mavx2 so generic builds still carry it); admissible only when the
//     runtime cpu_features probe reports CPU *and* OS AVX2 support.
//   * avx512 — 512-bit kernels (kernels_avx512.cpp, per-file -mavx512f
//     -mavx512bw); admissible only when the probe reports AVX-512F +
//     AVX-512BW *and* the OS saves ZMM state (XCR0). Carries two popcount
//     flavors (nibble-LUT and VPOPCNTDQ) and picks per process at runtime.
//
// One table is selected per process on first use: the widest admissible
// backend, overridable with UHD_BACKEND=auto|scalar|swar|avx2|avx512. An
// override naming an unknown backend, or forcing one the probe rejects,
// throws a uhd::error with a diagnostic listing the admissible choices —
// it never silently falls back and never executes unsupported
// instructions.
//
// A table has nine kernel slots:
//   * encode — geq_block_accumulate (stored threshold bank) and
//     geq_rematerialize_accumulate (thresholds regenerated on the fly);
//   * training — count_table_accumulate, the class-histogram bundling
//     pass: a sum of thermometer codes is a cumulative histogram, so a
//     class bundle reads one count per (pixel, dimension) from the class's
//     cumulative histograms instead of encoding each image;
//   * associative search — sign_binarize plus the two query-block Hamming
//     kernels, hamming_block_extend and hamming_block_argmin2_prefix. A
//     single query is a block of one; there is no separate per-query path;
//   * integer reductions — sum_squares_i32, dot_i32 and masked_sum_i32.
//
// The slot contract, for every backend: accept any size (ragged against
// vector widths and bank panels, and degenerate ones such as a single
// pixel or dimension), add into an accumulating output rather than
// overwrite it, write nothing past the output's end, and fall back
// internally where a wide path has a value precondition (max_value,
// levels) instead of miscomputing.
//
// Every backend is bit-exact against the scalar reference for the integer
// kernels, and runs the identical fixed-lane-order algorithm for the
// double reductions, so results are bit-identical across backends; the
// per-backend equivalence suites (tests/test_simd_kernels.cpp,
// tests/test_block_kernels.cpp, tests/test_backend_dispatch.cpp) enforce
// this.
#ifndef UHD_COMMON_KERNELS_HPP
#define UHD_COMMON_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "uhd/common/cpu_features.hpp"

namespace uhd::kernels {

/// argmin + runner-up of a prefix-window Hamming scan.
struct argmin2_result {
    std::size_t index;       ///< nearest row (lowest index on ties)
    std::uint64_t distance;  ///< winning distance over the window
    std::uint64_t runner_up; ///< second-best distance (all-ones when n_rows < 2)
};

/// Width of one dimension panel of the stored threshold bank. The bank is
/// panel-major: for each run of bank_panel_dims dimensions, every pixel's
/// thresholds for that run are contiguous (pixel-major inside the panel),
/// so an encode streams one panel (npix * 256 bytes at most) through the
/// cache for a whole block of images. The last panel is narrower when dim
/// is not a multiple of the width. A multiple of 64, so with a 64-byte
/// aligned bank every full-panel row starts on a cache line.
inline constexpr std::size_t bank_panel_dims = 256;

/// Byte offset of threshold (pixel p, dimension d) in a panel-major bank of
/// npix pixels x dim dimensions. Panel k starts at k * bank_panel_dims *
/// npix and holds rows of min(bank_panel_dims, dim - k * bank_panel_dims)
/// bytes, so the whole bank is exactly npix * dim bytes.
[[nodiscard]] constexpr std::size_t bank_panel_offset(std::size_t npix,
                                                      std::size_t dim, std::size_t p,
                                                      std::size_t d) noexcept {
    const std::size_t d0 = d - d % bank_panel_dims;
    const std::size_t width =
        dim - d0 < bank_panel_dims ? dim - d0 : bank_panel_dims;
    return d0 * npix + p * width + (d - d0);
}

/// Number of 64-bit words needed for `n` packed sign bits.
[[nodiscard]] constexpr std::size_t sign_words(std::size_t n) noexcept {
    return (n + 63) / 64;
}

/// One backend: a name, its admissibility predicate, and the full hot-path
/// kernel set as plain function pointers. Tables are immutable process-wide
/// constants defined by the per-ISA translation units.
struct kernel_table {
    /// Backend name as accepted by UHD_BACKEND ("scalar", "swar", "avx2",
    /// "avx512").
    const char* name;

    /// True when this backend may run on the probed CPU.
    bool (*supported)(const cpu_features& features);

    /// Image-blocked encode over the dimension-panel bank:
    /// out[i * dim + d] += sum_{p<npix} (q[i * npix + p] >= T(p, d)) for
    /// every image i in [0, n_images) and d in [0, dim), where q holds
    /// n_images quantized images back-to-back and T(p, d) =
    /// panels[bank_panel_offset(npix, dim, p, d)]. `max_value` upper-bounds
    /// q and every threshold (backends whose wide path has a value
    /// precondition fall back internally when it is exceeded). Wide
    /// backends stream one panel at a time for every image of the call.
    /// With max_value <= 15 the avx2/avx512 tables answer groups of eight
    /// images with one byte shuffle per pixel through a 16-entry unary
    /// table (bit i of entry t: q_i >= t) and count the bit-lanes with a
    /// carry-save tree; calls or trailing images below a per-backend
    /// crossover, and larger max_value, take register tiles of up to four
    /// images x one panel slice, one byte compare per image. The counts
    /// are exact integers, so every path is bit-identical.
    void (*geq_block_accumulate)(const std::uint8_t* q, std::size_t npix,
                                 std::size_t n_images, const std::uint8_t* panels,
                                 std::size_t dim, std::int32_t* out,
                                 std::uint8_t max_value);

    /// Rematerializing encode tile: out[j] += sum_{p<npix}
    /// ((sobol_fraction_p(d_begin + j) ^ shifts[p]) <= bounds[p]) for j in
    /// [0, dim_count), where sobol_fraction_p(d) is the d-th 32-bit Sobol
    /// fraction of pixel p's direction numbers (`dir_words` u32 words at
    /// directions[p * dir_words], v_1 first). The caller folds the
    /// quantization comparison into `bounds` (largest raw fraction whose
    /// quantized value the pixel's intensity still reaches) and the
    /// per-pixel scramble into `shifts`, so one unsigned compare per
    /// (pixel, dim) replaces a stored-bank byte load. Pure integer
    /// accumulation: any dim tiling over [d_begin, d_begin + dim_count) is
    /// bit-identical to the stored-bank geq_block_accumulate.
    void (*geq_rematerialize_accumulate)(const std::uint32_t* directions,
                                         std::size_t dir_words,
                                         const std::uint32_t* shifts,
                                         const std::uint32_t* bounds,
                                         std::size_t npix, std::uint64_t d_begin,
                                         std::size_t dim_count, std::int32_t* out);

    /// Class-histogram bundling pass over the dimension-panel bank, for
    /// n_tables tables back-to-back: out[i * dim + d] += sum_{p<npix}
    /// counts[(i * npix + p) * levels + T(p, d)] for every table i in
    /// [0, n_tables) and d in [0, dim), with T(p, d) =
    /// panels[bank_panel_offset(npix, dim, p, d)] and every T(p, d) <
    /// levels. With counts[(i * npix + p) * levels + t] = #{images of class
    /// i whose pixel p quantizes to >= t} (cumulative histograms), out[i *
    /// dim + d] gains the sum over those images of geq_block_accumulate's
    /// count, exactly. Counts are u16, so a caller flushes its histograms
    /// before any entry passes 65535. Wide backends walk the panels
    /// outermost so each panel is read once for every table. With levels
    /// <= 16 the avx2/avx512 tables split each pixel's counts into low- and
    /// high-byte 16-entry tables, look up 32/64 dimensions per byte shuffle
    /// and add the bytes into u16 lanes flushed before they can overflow;
    /// above 16 levels, and on swar, a portable per-dimension gather runs.
    /// Integer sums: every path is bit-identical.
    void (*count_table_accumulate)(const std::uint16_t* counts, std::size_t n_tables,
                                   std::size_t npix, std::size_t levels,
                                   const std::uint8_t* panels, std::size_t dim,
                                   std::int32_t* out);

    /// Pack the sign bits of an int32 span (bit 1 = v[d] < 0) into
    /// ceil(n/64) words, zeroing the tail bits beyond n.
    void (*sign_binarize)(const std::int32_t* v, std::size_t n,
                          std::uint64_t* words);

    // The two Hamming slots below are the whole associative search: a
    // single query is a block of one (n_queries = 1), and each backend
    // handles the query tails (n_queries % 4) itself.

    /// Query-block window extension — the bitwise-GEMM tile kernel:
    /// distances[q * n_rows + r] += popcount(query_q ^ row_r) over words
    /// [from_word, to_word), for every q in [0, n_queries) and r in
    /// [0, n_rows). `queries` holds n_queries packed queries back-to-back,
    /// `query_words` words each (>= to_word). Wide backends register-block
    /// the (query, row) plane so each class row is streamed once per query
    /// tile instead of once per query; the accumulated distances are exact
    /// integers, so any blocking — and any split of the word window into
    /// consecutive extends — is bit-identical to one per-pair scan.
    void (*hamming_block_extend)(const std::uint64_t* queries,
                                 std::size_t query_words, std::size_t n_queries,
                                 const std::uint64_t* rows, std::size_t row_words,
                                 std::size_t from_word, std::size_t to_word,
                                 std::size_t n_rows, std::uint64_t* distances);

    /// Fused query-block argmin + runner-up over the first `prefix_words`
    /// of every row: results[q] is argmin2_u64 of query q's prefix
    /// distances (first-wins ties, all-ones runner-up when n_rows < 2),
    /// computed with the same row-streaming tile as hamming_block_extend
    /// but without materializing the queries x rows distance matrix.
    void (*hamming_block_argmin2_prefix)(const std::uint64_t* queries,
                                         std::size_t query_words,
                                         std::size_t n_queries,
                                         const std::uint64_t* rows,
                                         std::size_t row_words,
                                         std::size_t prefix_words,
                                         std::size_t n_rows,
                                         argmin2_result* results);

    /// Sum of squares of an int32 span (fixed 4-lane double accumulation).
    double (*sum_squares_i32)(const std::int32_t* v, std::size_t n);

    /// Dot product of two int32 spans (fixed 4-lane double accumulation).
    double (*dot_i32)(const std::int32_t* a, const std::int32_t* b, std::size_t n);

    /// Sum of v[i] over the set bits of a packed mask covering n values.
    std::int64_t (*masked_sum_i32)(const std::uint64_t* mask, const std::int32_t* v,
                                   std::size_t n);
};

/// Every backend compiled into this binary, widest-last (scalar, swar, and
/// avx2 when the toolchain could build it).
[[nodiscard]] std::span<const kernel_table* const> compiled_backends() noexcept;

/// Compiled-in backend by name; nullptr when unknown.
[[nodiscard]] const kernel_table* find_backend(std::string_view name) noexcept;

/// The compiled backends the cpu() probe admits on this machine, in
/// registry (widest-last) order — always at least scalar and swar. The
/// one source of truth for "which backends may run here": the per-backend
/// test and bench sweeps iterate over this.
[[nodiscard]] std::span<const kernel_table* const> admissible_backends();

/// Resolve a backend request against a probe. "auto" (or empty) picks the
/// widest admissible compiled backend; a concrete name must be both
/// compiled in and admissible. Throws uhd::error with a diagnostic listing
/// the valid names otherwise.
[[nodiscard]] const kernel_table& select_backend(std::string_view request,
                                                 const cpu_features& features);

/// The process-wide active backend: selected on first call from the
/// UHD_BACKEND environment override (default "auto") and the cpu()
/// probe, then cached. Throws on an invalid override — a typo'd or
/// unsupported UHD_BACKEND fails the first kernel call loudly instead of
/// silently computing on the wrong engine.
[[nodiscard]] const kernel_table& active();

/// Re-select the active backend (tests / bench harnesses that sweep
/// backends in-process). Same validation as select_backend.
void force_backend(std::string_view request);

/// The UHD_BACKEND override in effect ("" when unset).
[[nodiscard]] std::string_view backend_override() noexcept;

// --- dispatched entry points ----------------------------------------------
//
// Thin wrappers over active() so call sites read like plain functions; the
// cost per call is one atomic load plus an indirect call, amortized over
// whole-image / whole-row kernel bodies.

inline void geq_block_accumulate(const std::uint8_t* q, std::size_t npix,
                                 std::size_t n_images, const std::uint8_t* panels,
                                 std::size_t dim, std::int32_t* out,
                                 std::uint8_t max_value) {
    active().geq_block_accumulate(q, npix, n_images, panels, dim, out, max_value);
}

inline void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                         std::size_t dir_words,
                                         const std::uint32_t* shifts,
                                         const std::uint32_t* bounds,
                                         std::size_t npix, std::uint64_t d_begin,
                                         std::size_t dim_count, std::int32_t* out) {
    active().geq_rematerialize_accumulate(directions, dir_words, shifts, bounds,
                                          npix, d_begin, dim_count, out);
}

inline void count_table_accumulate(const std::uint16_t* counts, std::size_t n_tables,
                                   std::size_t npix, std::size_t levels,
                                   const std::uint8_t* panels, std::size_t dim,
                                   std::int32_t* out) {
    active().count_table_accumulate(counts, n_tables, npix, levels, panels, dim, out);
}

inline void sign_binarize(const std::int32_t* v, std::size_t n,
                          std::uint64_t* words) {
    active().sign_binarize(v, n, words);
}

inline void hamming_block_extend(const std::uint64_t* queries,
                                 std::size_t query_words, std::size_t n_queries,
                                 const std::uint64_t* rows, std::size_t row_words,
                                 std::size_t from_word, std::size_t to_word,
                                 std::size_t n_rows, std::uint64_t* distances) {
    active().hamming_block_extend(queries, query_words, n_queries, rows, row_words,
                                  from_word, to_word, n_rows, distances);
}

inline void hamming_block_argmin2_prefix(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t prefix_words,
    std::size_t n_rows, argmin2_result* results) {
    active().hamming_block_argmin2_prefix(queries, query_words, n_queries, rows,
                                          row_words, prefix_words, n_rows, results);
}

[[nodiscard]] inline double sum_squares_i32(const std::int32_t* v, std::size_t n) {
    return active().sum_squares_i32(v, n);
}

[[nodiscard]] inline double dot_i32(const std::int32_t* a, const std::int32_t* b,
                                    std::size_t n) {
    return active().dot_i32(a, b, n);
}

[[nodiscard]] inline std::int64_t masked_sum_i32(const std::uint64_t* mask,
                                                 const std::int32_t* v,
                                                 std::size_t n) {
    return active().masked_sum_i32(mask, v, n);
}

/// argmin + runner-up over a u64 distance array (first-wins on ties; the
/// runner-up may equal the winner when two rows tie). O(n_rows) scalar
/// reduction — deliberately not dispatched.
[[nodiscard]] inline argmin2_result argmin2_u64(const std::uint64_t* distances,
                                                std::size_t n_rows) noexcept {
    argmin2_result r{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    for (std::size_t i = 0; i < n_rows; ++i) {
        const std::uint64_t d = distances[i];
        if (d < r.distance) {
            r.runner_up = r.distance;
            r.distance = d;
            r.index = i;
        } else if (d < r.runner_up) {
            r.runner_up = d;
        }
    }
    return r;
}

} // namespace uhd::kernels

#endif // UHD_COMMON_KERNELS_HPP
