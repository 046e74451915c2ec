// Tests for the uHD encoder: equivalence of the fast, unary-hardware, and
// exact paths; threshold semantics; paper worked examples.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd::core;

uhd_config small_config() {
    uhd_config cfg;
    cfg.dim = 128;
    return cfg;
}

std::vector<std::uint8_t> ramp_image(std::size_t pixels) {
    std::vector<std::uint8_t> image(pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
        image[p] = static_cast<std::uint8_t>((p * 255) / (pixels - 1));
    }
    return image;
}

TEST(UhdEncoder, FastAndUnaryPathsAreBitIdentical) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, FastAndUnaryAgreeUnderHalfInputsPolicy) {
    uhd_config cfg = small_config();
    cfg.policy = binarize_policy::half_inputs;
    const uhd_encoder enc(cfg, {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, ExactPathIsCloseToQuantizedPath) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> quantized(enc.dim());
    std::vector<std::int32_t> exact(enc.dim());
    enc.encode(image, quantized);
    enc.encode_exact(image, exact);
    // Quantization flips some bits but sums must track each other: the mean
    // absolute difference stays below a few pixels' worth.
    double diff = 0.0;
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        diff += std::abs(quantized[d] - exact[d]);
    }
    EXPECT_LT(diff / static_cast<double>(enc.dim()), 8.0);
}

TEST(UhdEncoder, MeanCenteringMakesSumNearZero) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    std::int64_t total = 0;
    for (const std::int32_t v : acc) total += v;
    // Exact centering: |mean| < 1 (rounding of the doubled threshold only).
    EXPECT_LT(std::abs(static_cast<double>(total) / static_cast<double>(enc.dim())), 1.0);
}

TEST(UhdEncoder, DoubledThresholdMatchesPopcountMean) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    // 2*TOB must equal 2 * mean_d(ones[d]) up to rounding; reconstruct the
    // ones-counts from the centered output: ones = (out + tau2) / 2.
    const std::int32_t tau2 = enc.doubled_threshold(image);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    std::int64_t ones_total = 0;
    for (const std::int32_t v : acc) ones_total += (v + tau2) / 2;
    const double mean_ones =
        static_cast<double>(ones_total) / static_cast<double>(enc.dim());
    EXPECT_NEAR(static_cast<double>(tau2), 2.0 * mean_ones, 1.0);
}

TEST(UhdEncoder, HalfInputsThresholdIsPixelCount) {
    uhd_config cfg = small_config();
    cfg.policy = binarize_policy::half_inputs;
    const uhd_encoder enc(cfg, {6, 6, 1});
    EXPECT_EQ(enc.doubled_threshold(ramp_image(36)), 36);
}

TEST(UhdEncoder, QuantizeIntensityEndpoints) {
    const uhd_encoder enc(small_config(), {4, 4, 1});
    EXPECT_EQ(enc.quantize_intensity(0), 0);
    EXPECT_EQ(enc.quantize_intensity(255), 15);
    EXPECT_EQ(enc.quantize_intensity(128), 8); // round(128/255 * 15) = 8
}

TEST(UhdEncoder, DeterministicAcrossInstances) {
    const uhd_encoder a(small_config(), {6, 6, 1});
    const uhd_encoder b(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> va(a.dim());
    std::vector<std::int32_t> vb(b.dim());
    a.encode(image, va);
    b.encode(image, vb);
    EXPECT_EQ(va, vb); // single-iteration determinism: no randomness at all
}

TEST(UhdEncoder, SeedChangesBankButStaysDeterministic) {
    uhd_config other = small_config();
    other.sobol_seed = 12345;
    const uhd_encoder a(small_config(), {6, 6, 1});
    const uhd_encoder b(other, {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> va(a.dim());
    std::vector<std::int32_t> vb(b.dim());
    a.encode(image, va);
    b.encode(image, vb);
    EXPECT_NE(va, vb);
}

TEST(UhdEncoder, EncodeSignMatchesAccumulatorSign) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    const auto hv = enc.encode_sign(image);
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        EXPECT_EQ(hv.element(d), acc[d] >= 0 ? +1 : -1);
    }
}

TEST(UhdEncoder, ScrambleOffStillWorks) {
    uhd_config cfg = small_config();
    cfg.scramble = false;
    const uhd_encoder enc(cfg, {6, 6, 1});
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    const auto image = ramp_image(36);
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, Validation) {
    EXPECT_THROW(uhd_encoder(uhd_config{.dim = 32}, {4, 4, 1}), uhd::error);
    EXPECT_THROW(uhd_encoder(small_config(), {4, 4, 3}), uhd::error);
    const uhd_encoder enc(small_config(), {4, 4, 1});
    std::vector<std::int32_t> wrong(enc.dim() + 1);
    EXPECT_THROW(enc.encode(ramp_image(16), wrong), uhd::error);
    std::vector<std::int32_t> acc(enc.dim());
    EXPECT_THROW(enc.encode(ramp_image(17), acc), uhd::error);
}

TEST(UhdEncoder, ConfigDerivedQuantities) {
    uhd_config cfg;
    EXPECT_EQ(cfg.stream_length(), 16u);
    EXPECT_EQ(cfg.scalar_bits(), 4u);
    cfg.quant_levels = 64;
    EXPECT_EQ(cfg.scalar_bits(), 6u);
}

TEST(UhdEncoder, MemoryScalesWithDimAndPixels) {
    uhd_config big = small_config();
    big.dim = 512;
    const uhd_encoder a(small_config(), {4, 4, 1});
    const uhd_encoder b(big, {4, 4, 1});
    EXPECT_GT(b.memory_bytes(), a.memory_bytes());
}

// Row-major reference bank of a Sobol encoder (the ctor's construction).
uhd::ld::quantized_sobol_bank sobol_bank(const uhd_encoder& enc) {
    const uhd_config& cfg = enc.config();
    return {enc.directions(), enc.pixels(), cfg.dim, cfg.quant_levels,
            cfg.scramble ? cfg.sobol_seed : 0};
}

TEST(UhdEncoder, PanelBankIsCacheLineAlignedAndExactlySized) {
    for (const std::size_t dim : {64u, 300u, 1024u}) {
        uhd_config cfg;
        cfg.dim = dim;
        const uhd_encoder enc(cfg, {28, 28, 1});
        const auto bank = enc.panel_bank();
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bank.data()) % 64, 0u) << dim;
        EXPECT_EQ(bank.size(), enc.pixels() * dim);
    }
}

TEST(UhdEncoder, TableOneAccountingIsExact) {
    // Stored thresholds are pixels x D bytes (the row-major copy is not
    // kept next to the panels); memory_bytes adds the UST, the direction
    // table, the per-pixel CDF sidecar and the intensity LUT.
    for (const std::size_t dim : {128u, 1000u}) {
        uhd_config cfg;
        cfg.dim = dim;
        const uhd_encoder enc(cfg, {28, 28, 1});
        EXPECT_EQ(enc.threshold_bytes(), enc.pixels() * dim);
        EXPECT_EQ(enc.memory_bytes(),
                  enc.threshold_bytes() + enc.stream_table().memory_bytes() +
                      enc.directions().memory_bytes() +
                      enc.pixels() * cfg.quant_levels * sizeof(std::uint32_t) + 256);
    }
}

TEST(UhdEncoder, RowAndThresholdAccessorsMatchTheRowMajorBank) {
    uhd::xoshiro256ss rng(8);
    const uhd::data::image_shape shape{7, 5, 1};
    for (const std::size_t dim : {64u, 300u, 520u}) {
        uhd_config cfg;
        cfg.dim = dim;
        const uhd_encoder sobol(cfg, shape);
        std::vector<std::uint8_t> raw(shape.pixels() * dim);
        for (auto& v : raw) v = static_cast<std::uint8_t>(rng.next() % cfg.quant_levels);
        const uhd_encoder custom(cfg, shape,
                                 uhd::ld::quantized_sobol_bank::from_raw(
                                     shape.pixels(), dim, cfg.quant_levels, raw));
        const auto sobol_ref = sobol_bank(sobol);
        for (std::size_t p = 0; p < shape.pixels(); ++p) {
            const auto want_sobol = sobol_ref.row(p);
            const std::vector<std::uint8_t> want_custom(raw.begin() + p * dim,
                                                        raw.begin() + (p + 1) * dim);
            const auto sobol_row = sobol.sobol_row(p);
            ASSERT_TRUE(std::equal(want_sobol.begin(), want_sobol.end(), sobol_row.begin()));
            const auto custom_row = custom.sobol_row(p);
            ASSERT_EQ(std::vector<std::uint8_t>(custom_row.begin(), custom_row.end()),
                      want_custom);
            for (std::size_t d = 0; d < dim; ++d) {
                ASSERT_EQ(sobol.threshold(p, d), want_sobol[d]) << p << "," << d;
                ASSERT_EQ(custom.threshold(p, d), want_custom[d]) << p << "," << d;
            }
        }
        EXPECT_THROW((void)sobol.threshold(shape.pixels(), 0), uhd::error);
        EXPECT_THROW((void)sobol.threshold(0, dim), uhd::error);
    }
}

} // namespace
