// Equivalence tests for the word-parallel engine: every kernel of every
// admissible backend in the uhd::kernels registry against its pinned
// scalar reference (the Hamming block kernels in test_block_kernels.cpp),
// the optimized encoder paths against the scalar oracle
// over randomized images x configurations, batch encoding against
// per-image encoding, and thread-count determinism of the batch
// classifier APIs.
//
// The whole suite runs under any UHD_BACKEND value (tests/CMakeLists.txt
// registers forced-backend variants), and the per-backend loops below
// additionally cover every admissible backend inside a single process, so
// a backend can't dodge the oracle by not being the active one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint8_t max_value,
                                       xoshiro256ss& rng) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
        b = static_cast<std::uint8_t>(rng.next() % (static_cast<unsigned>(max_value) + 1));
    }
    return out;
}

// All kernel-equivalence loops iterate over kernels::admissible_backends()
// (always at least scalar and swar), so on AVX2 hardware the AVX2 table is
// oracle-checked even when the active backend is something else.
using kernels::admissible_backends;

TEST(SimdKernels, GeqMaskSwarMatchesByteCompare) {
    xoshiro256ss rng(11);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::uint8_t q = static_cast<std::uint8_t>(rng.next() % 128);
        std::uint8_t bytes[8];
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() % 128);
        std::uint64_t x;
        std::memcpy(&x, bytes, 8);
        const std::uint64_t mask = simd::geq_mask_swar(simd::splat8(q), x);
        for (int i = 0; i < 8; ++i) {
            const bool expected = q >= bytes[i];
            const bool got = ((mask >> (8 * i)) & 0x80u) != 0;
            EXPECT_EQ(got, expected) << "q=" << int(q) << " x=" << int(bytes[i]);
        }
    }
}

// Straight from the kernel contract: out[i * dim + d] += sum_p
// (q[i * npix + p] >= T(p, d)) with T read through bank_panel_offset.
void naive_panel_accumulate(const std::vector<std::uint8_t>& q, std::size_t npix,
                            std::size_t n_images, const std::vector<std::uint8_t>& panels,
                            std::size_t dim, std::int32_t* out) {
    std::vector<std::uint8_t> row(dim);
    for (std::size_t p = 0; p < npix; ++p) {
        for (std::size_t d = 0; d < dim; ++d) {
            row[d] = panels[kernels::bank_panel_offset(npix, dim, p, d)];
        }
        for (std::size_t i = 0; i < n_images; ++i) {
            for (std::size_t d = 0; d < dim; ++d) {
                out[i * dim + d] += q[i * npix + p] >= row[d] ? 1 : 0;
            }
        }
    }
}

TEST(SimdKernels, PanelOffsetsTileTheBankExactly) {
    for (const std::size_t npix : {1u, 3u, 49u}) {
        for (const std::size_t dim : {64u, 100u, 256u, 300u, 777u, 1024u}) {
            std::vector<int> hits(npix * dim, 0);
            for (std::size_t p = 0; p < npix; ++p) {
                for (std::size_t d = 0; d < dim; ++d) {
                    const std::size_t off = kernels::bank_panel_offset(npix, dim, p, d);
                    ASSERT_LT(off, npix * dim);
                    ++hits[off];
                    // Dimensions of one panel are contiguous per pixel.
                    if (d % kernels::bank_panel_dims != 0) {
                        EXPECT_EQ(off, kernels::bank_panel_offset(npix, dim, p, d - 1) + 1);
                    }
                }
                // Full-panel rows start on a cache line of an aligned bank.
                for (std::size_t d0 = 0; d0 + kernels::bank_panel_dims <= dim;
                     d0 += kernels::bank_panel_dims) {
                    EXPECT_EQ(kernels::bank_panel_offset(npix, dim, p, d0) % 64, 0u);
                }
            }
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }))
                << "npix=" << npix << " dim=" << dim;
        }
    }
}

TEST(SimdKernels, BlockKernelEveryBackendMatchesNaiveOnRaggedGrid) {
    // npix straddles the 255-pixel u8 counter flush and the unary-LUT
    // kernels' 32-pixel carry-save groups (15, 16, 17) and 992-pixel
    // counter chunks (1025, 4097: counts that carry past the vertical
    // counter planes); dims are ragged against 32/64-lane vectors and the
    // 256-wide panels; n_images crosses the 4-image register block, the
    // 8-image LUT group and its small-remainder fallback. max_value 15 takes
    // the LUT path, 16 and 127 the compare tiles. Image 2 is all max_value
    // and image 6 all zero. Outputs start nonzero (+= semantics) and are
    // followed by guard slots no kernel may touch.
    xoshiro256ss rng(66);
    constexpr std::size_t max_images = 64;
    constexpr std::size_t guard = 80;
    std::vector<std::size_t> counts;
    for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
    counts.push_back(31);
    counts.push_back(max_images);
    int trial = 0;
    for (const std::size_t npix : {1u, 15u, 16u, 17u, 255u, 256u, 784u, 1025u, 4097u}) {
        const std::vector<std::size_t> dims =
            npix > 1000 ? std::vector<std::size_t>{65, 300}
                        : std::vector<std::size_t>{1, 63, 65, 200, 256, 300, 520};
        for (const std::size_t dim : dims) {
            for (const std::uint8_t max_value :
                 {std::uint8_t{15}, trial++ % 2 == 0 ? std::uint8_t{16} : std::uint8_t{127}}) {
                const auto panels = random_bytes(npix * dim, max_value, rng);
                auto q = random_bytes(max_images * npix, max_value, rng);
                std::fill_n(q.begin() + 2 * npix, npix, max_value);
                std::fill_n(q.begin() + 6 * npix, npix, std::uint8_t{0});
                std::vector<std::int32_t> expected(max_images * dim + guard, 3);
                naive_panel_accumulate(q, npix, max_images, panels, dim, expected.data());

                for (const std::size_t n : counts) {
                    const auto check = [&](const char* name,
                                           const std::vector<std::int32_t>& got) {
                        ASSERT_TRUE(std::equal(got.begin(), got.begin() + n * dim,
                                               expected.begin()))
                            << name << " npix=" << npix << " dim=" << dim << " n=" << n
                            << " max_value=" << int(max_value);
                        ASSERT_TRUE(std::all_of(got.begin() + n * dim, got.end(),
                                                [](std::int32_t v) { return v == 3; }))
                            << name << " wrote past its output, dim=" << dim << " n=" << n;
                    };
                    std::vector<std::int32_t> got(n * dim + guard, 3);
                    // The byte-at-a-time reference, the portable SWAR body and
                    // the scalar table (which runs the reference) at up to 7
                    // images and at 64: their image loops are not blocked by
                    // eight, so the larger counts would only add run time.
                    const bool unblocked_check = n <= 7 || n == max_images;
                    if (unblocked_check) {
                        simd::geq_block_accumulate_reference(q.data(), npix, n, panels.data(),
                                                             dim, got.data());
                        check("reference", got);
                        std::fill(got.begin(), got.end(), 3);
                        simd::geq_block_accumulate_swar(q.data(), npix, n, panels.data(), dim,
                                                        got.data());
                        check("swar body", got);
                    }
                    for (const kernels::kernel_table* backend : admissible_backends()) {
                        if (std::string(backend->name) == "scalar" && !unblocked_check) {
                            continue;
                        }
                        std::fill(got.begin(), got.end(), 3);
                        backend->geq_block_accumulate(q.data(), npix, n, panels.data(), dim,
                                                      got.data(), max_value);
                        check(backend->name, got);
                    }
                    std::fill(got.begin(), got.end(), 3);
                    kernels::geq_block_accumulate(q.data(), npix, n, panels.data(), dim,
                                                  got.data(), max_value);
                    check("dispatched", got);
                }
            }
        }
    }
}

TEST(SimdKernels, BlockKernelFullByteRangeOnEveryBackend) {
    // Values above 127 are outside the SWAR wide-path contract; every
    // backend must still be exact (the swar table falls back internally).
    xoshiro256ss rng(33);
    const std::size_t npix = 40;
    const std::size_t dim = 300;
    const std::size_t n = 5;
    const auto panels = random_bytes(npix * dim, 255, rng);
    const auto q = random_bytes(n * npix, 255, rng);
    std::vector<std::int32_t> expected(n * dim, 0);
    naive_panel_accumulate(q, npix, n, panels, dim, expected.data());
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::int32_t> got(n * dim, 0);
        backend->geq_block_accumulate(q.data(), npix, n, panels.data(), dim, got.data(),
                                      255);
        EXPECT_EQ(expected, got) << "backend=" << backend->name;
    }
}

/// Independent in-test oracle for the class-histogram pass: one table read
/// per (table, pixel, dimension) through the panel offsets, no kernels
/// involved.
void naive_count_table(const std::vector<std::uint16_t>& counts, std::size_t n_tables,
                       std::size_t npix, std::size_t levels,
                       const std::vector<std::uint8_t>& panels, std::size_t dim,
                       std::int32_t* out) {
    for (std::size_t i = 0; i < n_tables; ++i) {
        for (std::size_t p = 0; p < npix; ++p) {
            for (std::size_t d = 0; d < dim; ++d) {
                out[i * dim + d] +=
                    counts[(i * npix + p) * levels +
                           panels[kernels::bank_panel_offset(npix, dim, p, d)]];
            }
        }
    }
}

TEST(SimdKernels, CountTableEveryBackendMatchesReferenceOnRaggedGrid) {
    // npix straddles the wide kernels' 256-pixel u16 flush (255, 256, 257)
    // and their two-pixel table split (odd counts); dims are ragged against
    // 32/64-lane vectors and the 256-wide panels; levels 2 and 16 take the
    // byte-shuffle path, 17 and 256 the gather; one table and three. Every
    // pixel's counts cycle through 0, 255, 256, 65535 and random values
    // (the low/high byte-plane carries), and every fifth pixel is all 65535.
    // Outputs start nonzero (+= semantics) and are followed by guard slots
    // no kernel may touch.
    xoshiro256ss rng(77);
    constexpr std::size_t guard = 80;
    constexpr std::uint16_t specials[] = {0, 255, 256, 65535};
    for (const std::size_t npix : {1u, 15u, 16u, 17u, 255u, 256u, 257u, 784u, 1025u}) {
        for (const std::size_t dim : {1u, 63u, 65u, 200u, 256u, 300u, 520u}) {
            for (const std::size_t levels : {2u, 16u, 17u, 256u}) {
                const std::size_t n_tables = (npix + dim + levels) % 2 == 0 ? 1 : 3;
                std::vector<std::uint16_t> counts(n_tables * npix * levels);
                for (std::size_t k = 0; k < counts.size(); ++k) {
                    const std::uint64_t r = rng.next();
                    counts[k] = (k / levels) % 5 == 0 ? 65535
                                : r % 3 == 0          ? specials[(r >> 8) % 4]
                                                      : static_cast<std::uint16_t>(r >> 16);
                }
                const auto panels = random_bytes(
                    npix * dim, static_cast<std::uint8_t>(levels - 1), rng);
                const std::size_t n_out = n_tables * dim;
                std::vector<std::int32_t> expected(n_out + guard, 3);
                naive_count_table(counts, n_tables, npix, levels, panels, dim,
                                  expected.data());

                std::vector<std::int32_t> got(n_out + guard, 3);
                simd::count_table_accumulate_reference(counts.data(), n_tables, npix, levels,
                                                       panels.data(), dim, got.data());
                ASSERT_EQ(expected, got) << "reference npix=" << npix << " dim=" << dim
                                         << " levels=" << levels;
                std::fill(got.begin(), got.end(), 3);
                simd::count_table_accumulate_portable(counts.data(), n_tables, npix, levels,
                                                      panels.data(), dim, got.data());
                ASSERT_EQ(expected, got) << "portable npix=" << npix << " dim=" << dim
                                         << " levels=" << levels;
                for (const kernels::kernel_table* backend : admissible_backends()) {
                    std::fill(got.begin(), got.end(), 3);
                    backend->count_table_accumulate(counts.data(), n_tables, npix, levels,
                                                    panels.data(), dim, got.data());
                    ASSERT_EQ(expected, got) << backend->name << " npix=" << npix
                                             << " dim=" << dim << " levels=" << levels;
                }
                std::fill(got.begin(), got.end(), 3);
                kernels::count_table_accumulate(counts.data(), n_tables, npix, levels,
                                                panels.data(), dim, got.data());
                ASSERT_EQ(expected, got) << "dispatched npix=" << npix << " dim=" << dim
                                         << " levels=" << levels;
            }
        }
    }
}

TEST(SimdKernels, CountTableSaturatedCountsOnEveryBackend) {
    // Every count 65535: each byte plane holds 255 in every lane of a full
    // 256-pixel chunk, the largest sum the u16 lanes must carry exactly.
    xoshiro256ss rng(78);
    for (const std::size_t npix : {256u, 257u, 1025u}) {
        for (const std::size_t levels : {16u, 17u}) {
            const std::size_t dim = 300;
            const std::vector<std::uint16_t> counts(2 * npix * levels, 65535);
            const auto panels =
                random_bytes(npix * dim, static_cast<std::uint8_t>(levels - 1), rng);
            const std::vector<std::int32_t> expected(
                2 * dim, static_cast<std::int32_t>(65535 * npix));
            for (const kernels::kernel_table* backend : admissible_backends()) {
                std::vector<std::int32_t> got(2 * dim, 0);
                backend->count_table_accumulate(counts.data(), 2, npix, levels,
                                                panels.data(), dim, got.data());
                EXPECT_EQ(expected, got) << backend->name << " npix=" << npix
                                         << " levels=" << levels;
            }
        }
    }
}

TEST(SimdKernels, TileFlushAddsIntoAccumulator) {
    const std::vector<std::uint16_t> tile = {0, 1, 65535, 300};
    std::vector<std::int32_t> acc = {5, -5, 1, 0};
    simd::add_u16_to_i32(tile.data(), tile.size(), acc.data());
    EXPECT_EQ(acc, (std::vector<std::int32_t>{5, -4, 65536, 300}));
}

TEST(SimdKernels, XorPopcountReductionMatchesNaive) {
    // The one popcount reduction in simd.hpp: the per-row Hamming distance
    // the portable block kernels reduce their ragged edges with. The
    // per-backend Hamming kernels are covered in test_block_kernels.cpp.
    xoshiro256ss rng(44);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 9;
        std::vector<std::uint64_t> a(n);
        std::vector<std::uint64_t> b(n);
        for (auto& w : a) w = rng.next();
        for (auto& w : b) w = rng.next();
        std::uint64_t xor_pop = 0;
        for (std::size_t i = 0; i < n; ++i) {
            xor_pop += std::popcount(a[i] ^ b[i]);
        }
        EXPECT_EQ(simd::xor_popcount_words(a.data(), b.data(), n), xor_pop);
    }
}

TEST(SimdKernels, SignBinarizeEveryBackendMatchesReference) {
    xoshiro256ss rng(88);
    for (int trial = 0; trial < 200; ++trial) {
        // Dims straddle word boundaries: 1..320 covers non-multiples of 64,
        // exact multiples, and the single-word case.
        const std::size_t n = 1 + rng.next() % 320;
        std::vector<std::int32_t> values(n);
        for (auto& v : values) {
            // Mix of negative, zero, and positive (zero must map to +1 /
            // bit 0, the accumulator::sign tie rule).
            v = static_cast<std::int32_t>(rng.next() % 7) - 3;
        }
        std::vector<std::uint64_t> reference(kernels::sign_words(n), ~std::uint64_t{0});
        std::vector<std::uint64_t> swar(kernels::sign_words(n), ~std::uint64_t{0});
        simd::sign_binarize_reference(values.data(), n, reference.data());
        simd::sign_binarize_swar(values.data(), n, swar.data());
        EXPECT_EQ(reference, swar) << "n=" << n;

        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::uint64_t> got(kernels::sign_words(n), ~std::uint64_t{0});
            backend->sign_binarize(values.data(), n, got.data());
            EXPECT_EQ(reference, got) << "backend=" << backend->name << " n=" << n;

            // Tail bits beyond n must be zero (the bitstream invariant).
            if (n % 64 != 0) {
                const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
                EXPECT_EQ(got.back() & tail_mask, 0u) << "backend=" << backend->name;
            }
        }

        std::vector<std::uint64_t> dispatched(kernels::sign_words(n), ~std::uint64_t{0});
        kernels::sign_binarize(values.data(), n, dispatched.data());
        EXPECT_EQ(reference, dispatched) << "n=" << n;
    }
}

TEST(SimdKernels, SignBinarizeExtremeValues) {
    const std::vector<std::int32_t> values = {INT32_MIN, INT32_MAX, 0, -1, 1,
                                              INT32_MIN + 1, INT32_MAX - 1};
    std::vector<std::uint64_t> reference(1);
    simd::sign_binarize_reference(values.data(), values.size(), reference.data());
    EXPECT_EQ(reference[0], 0b0101001u); // bits set where value < 0
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::uint64_t> got(1);
        backend->sign_binarize(values.data(), values.size(), got.data());
        EXPECT_EQ(reference, got) << "backend=" << backend->name;
    }
}

TEST(SimdKernels, BlockedDotKernelsEveryBackendBitIdentical) {
    xoshiro256ss rng(122);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 1 + rng.next() % 500;
        std::vector<std::int32_t> a(n);
        std::vector<std::int32_t> b(n);
        for (auto& v : a) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        for (auto& v : b) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        double naive_dot = 0.0;
        double naive_sq = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            naive_dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
            naive_sq += static_cast<double>(a[i]) * static_cast<double>(a[i]);
        }
        // Lane-split accumulation reorders the rounding, so compare to the
        // naive loop with a relative tolerance...
        const double portable_dot = simd::dot_i32(a.data(), b.data(), n);
        const double portable_sq = simd::sum_squares_i32(a.data(), n);
        const double scale = std::max(1.0, std::abs(naive_dot));
        EXPECT_NEAR(portable_dot, naive_dot, 1e-9 * scale);
        EXPECT_NEAR(portable_sq, naive_sq, 1e-9 * std::max(1.0, naive_sq));
        // ...but every backend runs the identical fixed-lane algorithm, so
        // across backends the doubles must agree bit-for-bit.
        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(backend->dot_i32(a.data(), b.data(), n), portable_dot)
                << "backend=" << backend->name;
            EXPECT_EQ(backend->sum_squares_i32(a.data(), n), portable_sq)
                << "backend=" << backend->name;
        }
    }
}

TEST(SimdKernels, MaskedSumEveryBackendMatchesNaive) {
    xoshiro256ss rng(55);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 300;
        std::vector<std::uint64_t> mask((n + 63) / 64, 0);
        std::vector<std::int32_t> values(n);
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            values[i] = static_cast<std::int32_t>(rng.next()) % 1000;
            if (rng.next() % 2 == 0) {
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
                expected += values[i];
            }
        }
        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(backend->masked_sum_i32(mask.data(), values.data(), n), expected)
                << "backend=" << backend->name;
        }
        EXPECT_EQ(kernels::masked_sum_i32(mask.data(), values.data(), n), expected);
    }
}

// --- encoder equivalence over randomized configurations -------------------

struct encoder_case {
    core::uhd_config cfg;
    data::image_shape shape;
};

encoder_case random_case(xoshiro256ss& rng) {
    encoder_case c;
    const std::size_t dims[] = {64, 128, 192, 256};
    const unsigned levels[] = {4, 8, 16, 32};
    c.cfg.dim = dims[rng.next() % 4];
    c.cfg.quant_levels = levels[rng.next() % 4];
    c.cfg.scramble = rng.next() % 2 == 0;
    c.cfg.policy = rng.next() % 2 == 0 ? core::binarize_policy::mean_intensity
                                       : core::binarize_policy::half_inputs;
    c.cfg.sobol_seed = 1 + rng.next() % 1000;
    const std::size_t side = 4 + rng.next() % 4; // 4x4 .. 7x7 images
    c.shape = {side, side, 1};
    return c;
}

TEST(EncoderEquivalence, WordParallelMatchesScalarOracleAcross100Configs) {
    xoshiro256ss rng(2024);
    for (int config_i = 0; config_i < 100; ++config_i) {
        const encoder_case c = random_case(rng);
        const core::uhd_encoder enc(c.cfg, c.shape);
        for (int image_i = 0; image_i < 3; ++image_i) {
            const auto image = random_bytes(c.shape.pixels(), 255, rng);
            std::vector<std::int32_t> fast(enc.dim());
            std::vector<std::int32_t> oracle(enc.dim());
            enc.encode(image, fast);
            enc.encode_scalar(image, oracle);
            ASSERT_EQ(fast, oracle)
                << "config " << config_i << ": dim=" << c.cfg.dim
                << " levels=" << c.cfg.quant_levels << " scramble=" << c.cfg.scramble
                << " backend=" << kernels::active().name;
        }
    }
}

TEST(EncoderEquivalence, MonotoneFastMatchesGateExactUnaryPath) {
    xoshiro256ss rng(7);
    for (int config_i = 0; config_i < 10; ++config_i) {
        const encoder_case c = random_case(rng);
        const core::uhd_encoder enc(c.cfg, c.shape);
        const auto image = random_bytes(c.shape.pixels(), 255, rng);
        std::vector<std::int32_t> fast(enc.dim());
        std::vector<std::int32_t> gates(enc.dim());
        enc.encode_unary(image, fast, core::unary_fidelity::monotone_fast);
        enc.encode_unary(image, gates, core::unary_fidelity::gate_exact);
        ASSERT_EQ(fast, gates);
    }
}

TEST(EncoderEquivalence, EncodeBatchMatchesPerImageEncode) {
    const core::uhd_config cfg{.dim = 128};
    const data::image_shape shape{6, 6, 1};
    const core::uhd_encoder enc(cfg, shape);
    xoshiro256ss rng(99);

    const std::size_t count = 17;
    std::vector<std::uint8_t> images;
    for (std::size_t i = 0; i < count; ++i) {
        const auto img = random_bytes(shape.pixels(), 255, rng);
        images.insert(images.end(), img.begin(), img.end());
    }

    std::vector<std::int32_t> batched(count * enc.dim());
    enc.encode_batch(images, count, batched);

    for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(std::span<const std::uint8_t>(images).subspan(i * shape.pixels(),
                                                                 shape.pixels()),
                   single);
        const auto slot = std::span<const std::int32_t>(batched)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }

    // Calls of 5-8 images: one unary-LUT group, whole or partial, and the
    // compare-tile remainder of the last call.
    for (const std::size_t block : {5u, 6u, 7u, 8u}) {
        std::vector<std::int32_t> blocked(count * enc.dim());
        for (std::size_t b = 0; b < count; b += block) {
            const std::size_t n = std::min(block, count - b);
            enc.encode_batch(
                std::span<const std::uint8_t>(images).subspan(b * shape.pixels(),
                                                              n * shape.pixels()),
                n, std::span<std::int32_t>(blocked).subspan(b * enc.dim(), n * enc.dim()));
        }
        ASSERT_EQ(batched, blocked) << "block=" << block;
    }

    // Pooled batches are bit-identical regardless of worker count.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::vector<std::int32_t> pooled(count * enc.dim());
        enc.encode_batch(images, count, pooled, &pool);
        ASSERT_EQ(batched, pooled) << "threads=" << threads;
    }
}

TEST(EncoderEquivalence, BlockedBatchMatchesScalarOracleStoredAndCustomBank) {
    // Ragged dims against vectors and panels, batches of 1..7 images plus
    // one that crosses the encode_block_images kernel-call split, for the
    // Sobol bank and an arbitrary custom bank.
    xoshiro256ss rng(31);
    const data::image_shape shape{9, 9, 1};
    for (const std::size_t dim : {100u, 300u, 777u}) {
        core::uhd_config cfg;
        cfg.dim = dim;
        const auto raw = random_bytes(shape.pixels() * dim, cfg.quant_levels - 1, rng);
        const core::uhd_encoder sobol(cfg, shape);
        const core::uhd_encoder custom(
            cfg, shape,
            ld::quantized_sobol_bank::from_raw(shape.pixels(), dim, cfg.quant_levels, raw));
        for (const core::uhd_encoder* enc : {&sobol, &custom}) {
            const std::size_t count = core::uhd_encoder::encode_block_images + 6;
            const auto images = random_bytes(count * shape.pixels(), 255, rng);
            std::vector<std::int32_t> oracle(count * dim);
            for (std::size_t i = 0; i < count; ++i) {
                enc->encode_scalar(
                    std::span<const std::uint8_t>(images).subspan(i * shape.pixels(),
                                                                  shape.pixels()),
                    std::span<std::int32_t>(oracle).subspan(i * dim, dim));
            }
            for (std::size_t n = 1; n <= 7; ++n) {
                std::vector<std::int32_t> got(n * dim);
                enc->encode_batch(std::span<const std::uint8_t>(images).first(
                                      n * shape.pixels()),
                                  n, got);
                ASSERT_TRUE(std::equal(got.begin(), got.end(), oracle.begin()))
                    << "dim=" << dim << " n=" << n << " custom=" << (enc == &custom)
                    << " backend=" << kernels::active().name;
            }
            thread_pool pool(2);
            std::vector<std::int32_t> got(count * dim);
            enc->encode_batch(images, count, got, &pool);
            ASSERT_EQ(got, oracle) << "dim=" << dim << " custom=" << (enc == &custom);
        }
    }
}

TEST(EncoderEquivalence, DatasetBatchOverloadMatchesFlatOverload) {
    const auto ds = data::make_synthetic_digits(12, 5);
    const core::uhd_config cfg{.dim = 128};
    const core::uhd_encoder enc(cfg, ds.shape());

    std::vector<std::int32_t> from_dataset(ds.size() * enc.dim());
    enc.encode_batch(ds, from_dataset);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(ds.image(i), single);
        const auto slot = std::span<const std::int32_t>(from_dataset)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }
}

TEST(BatchClassifier, PredictBatchAndEvaluateAreThreadCountInvariant) {
    const auto train = data::make_synthetic_digits(60, 5);
    const auto test = data::make_synthetic_digits(30, 6);
    const core::uhd_config cfg{.dim = 256};
    const core::uhd_encoder enc(cfg, train.shape());
    // Both query modes must be thread-count invariant: integer (blocked dot
    // kernels) and binarized (packed associative-memory engine).
    for (const hdc::query_mode qm :
         {hdc::query_mode::integer, hdc::query_mode::binarized}) {
        hdc::hd_classifier<core::uhd_encoder> clf(enc, train.num_classes(),
                                                  hdc::train_mode::raw_sums, qm);
        clf.fit(train);

        const std::vector<std::size_t> serial = clf.predict_batch(test);
        const double serial_accuracy = clf.evaluate(test);
        for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
            thread_pool pool(threads);
            EXPECT_EQ(clf.predict_batch(test, &pool), serial) << "threads=" << threads;
            data::confusion_matrix serial_matrix(test.num_classes());
            data::confusion_matrix pooled_matrix(test.num_classes());
            EXPECT_DOUBLE_EQ(clf.evaluate(test, &serial_matrix),
                             clf.evaluate(test, &pooled_matrix, &pool));
            for (std::size_t t = 0; t < test.num_classes(); ++t) {
                for (std::size_t p = 0; p < test.num_classes(); ++p) {
                    EXPECT_EQ(serial_matrix.count(t, p), pooled_matrix.count(t, p));
                }
            }
            EXPECT_DOUBLE_EQ(clf.evaluate(test, nullptr, &pool), serial_accuracy);
        }
    }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
            std::vector<int> hits(n, 0);
            pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
            });
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                    [](int h) { return h == 1; }))
                << "threads=" << threads << " n=" << n;
        }
    }
}

TEST(ThreadPool, EnvThreadsClampsNegativeAndGarbage) {
    // Regression: UHD_THREADS=-1 used to be cast through size_t, requesting
    // ~2^64 workers. Non-positive or unparsable values must fall back to 0
    // (= hardware concurrency).
    const char* saved = std::getenv("UHD_THREADS");
    const std::string saved_value = saved != nullptr ? saved : "";

    ::setenv("UHD_THREADS", "-1", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "-9999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "garbage", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    // Absurd positive requests (including strtoll overflow saturation)
    // must not ask the pool to actually spawn that many workers.
    ::setenv("UHD_THREADS", "1000000000", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "999999999999999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "3", 1);
    EXPECT_EQ(thread_pool::env_threads(), 3u);
    ::unsetenv("UHD_THREADS");
    EXPECT_EQ(thread_pool::env_threads(), 0u);

    if (saved != nullptr) {
        ::setenv("UHD_THREADS", saved_value.c_str(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t begin, std::size_t) {
                                       if (begin == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

} // namespace
