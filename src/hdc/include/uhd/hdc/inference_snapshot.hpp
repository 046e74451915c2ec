// Immutable, versioned inference state — the read half of the
// train/serve split.
//
// The paper's pitch is *dynamic* HDC: single-pass training and online
// partial_fit updates on the device that answers queries. That only works
// at scale if the query path never touches mutable training state. An
// inference_snapshot is everything inference needs and nothing training
// mutates: the packed class memory (binarized class rows), the integer
// class rows with their cached norms (integer query mode), and the
// dim/classes/mode metadata — the finalized associative-memory artifact
// the combinational-AM literature (Schmuck et al.) treats as distinct
// from training.
//
// Lifecycle (RCU-style):
//   1. a trainer (hd_classifier / uhd_model) finalizes its accumulators
//      into its private snapshot and hands out copies via snapshot();
//   2. a copy is published to readers as shared_ptr<const
//      inference_snapshot> (serve::inference_engine::publish swaps one
//      atomic pointer — readers never wait on the trainer);
//   3. readers answer queries from the const snapshot they hold; it stays
//      valid until the last reader drops it, no matter how many newer
//      snapshots were published meanwhile.
//
// The type itself exposes store_* mutators for the single writer building
// the next version; const-ness is the immutability boundary — everything
// published is shared as const and never written again.
//
// Bit-identity contract: predict_encoded / predict_dynamic_* answer
// exactly like hd_classifier's pre-snapshot read paths for every backend
// (the classifier's own paths now delegate here, and
// tests/test_inference_snapshot.cpp holds copies to the live state).
#ifndef UHD_HDC_INFERENCE_SNAPSHOT_HPP
#define UHD_HDC_INFERENCE_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// How a query is compared against the trained classes. (Defined here —
/// the snapshot is the read state — and re-exported by classifier.hpp.)
enum class query_mode {
    binarized, ///< sign() the query, Hamming-argmin over the packed rows
    integer,   ///< cosine between the raw query and integer class rows
};

/// Versioned, cheaply copyable inference state: packed class memory,
/// integer class rows + cached norms (integer mode), and metadata.
class inference_snapshot {
public:
    inference_snapshot() = default;

    /// Empty state for `classes` classes of dimension `dim` (every class
    /// all-(+1), zero integer rows). Integer-row storage is allocated only
    /// for query_mode::integer — binarized serving carries just the packed
    /// rows.
    inference_snapshot(query_mode mode, std::size_t classes, std::size_t dim);

    [[nodiscard]] query_mode mode() const noexcept { return mode_; }
    [[nodiscard]] std::size_t classes() const noexcept { return mem_.classes(); }
    [[nodiscard]] std::size_t dim() const noexcept { return mem_.dim(); }
    [[nodiscard]] std::size_t words_per_class() const noexcept {
        return mem_.words_per_class();
    }

    /// Mutation counter: bumped by every store_* call, stamped into copies.
    /// Version is publication metadata, not state — operator== ignores it.
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    /// Packed associative memory over the binarized class rows.
    [[nodiscard]] const class_memory& memory() const noexcept { return mem_; }

    /// Integer row of class `c` (empty span in binarized mode).
    [[nodiscard]] std::span<const std::int32_t> class_values(std::size_t c) const;

    /// Cached squared norm of class `c`'s integer row (0.0 in binarized
    /// mode — never read there).
    [[nodiscard]] double class_norm_sq(std::size_t c) const;

    // --- writer API -------------------------------------------------------
    //
    // For the single trainer building the next version; published copies
    // are shared as shared_ptr<const inference_snapshot> and never mutated.

    /// Overwrite class `c`'s packed row with a binarized hypervector.
    void store_class_row(std::size_t c, const hypervector& hv);

    /// Overwrite class `c`'s integer row and refresh its cached norm.
    /// No-op in binarized mode (the integer rows are never read there).
    void store_class_values(std::size_t c, std::span<const std::int32_t> values);

    // --- read paths -------------------------------------------------------

    /// Predict from an already-encoded accumulator. Binarized mode:
    /// word-parallel sign-binarize + Hamming-argmin over the packed class
    /// memory. Integer mode: blocked dot products against the integer class
    /// rows with the cached norms (cosine argmax, first-wins). Bit-identical
    /// to hd_classifier::predict_encoded on the same state, per backend.
    [[nodiscard]] std::size_t predict_encoded(
        std::span<const std::int32_t> encoded) const;

    /// Dynamic-dimension inference from an encoded accumulator: sign-
    /// binarize and answer through the early-exit cascade. Always answers
    /// from the packed memory regardless of mode(); the full-D stage is
    /// bit-identical to binarized-mode predict_encoded.
    [[nodiscard]] std::size_t predict_dynamic_encoded(
        std::span<const std::int32_t> encoded, const dynamic_query_policy& policy,
        dynamic_query_stats* stats = nullptr) const;

    // --- block read paths -------------------------------------------------
    //
    // Multi-query entry points: `n_queries` queries back-to-back in one
    // contiguous buffer, answered with the register-blocked query-GEMM
    // kernels so each packed class row is streamed once per query tile
    // instead of once per query. Every out[q] is bit-identical to the
    // corresponding single-query call — blocking changes memory traffic,
    // never answers.

    /// Predict a block of already-encoded accumulators (`n_queries` x dim()
    /// int32 values back-to-back). Binarized mode packs every query and
    /// answers with one block Hamming-argmin; integer mode falls back to
    /// the per-query cosine path (its blocked-dot kernels are per-row).
    void predict_block(std::span<const std::int32_t> encoded,
                       std::size_t n_queries, std::span<std::size_t> out) const;

    /// Predict a block of already-packed binarized queries
    /// (words_per_class() words each, back-to-back).
    void predict_packed_block(std::span<const std::uint64_t> queries_words,
                              std::size_t n_queries,
                              std::span<std::size_t> out) const;

    /// Dynamic-dimension inference on a block of encoded accumulators:
    /// sign-binarize every query and run the stage-synchronized block
    /// cascade (dynamic_query_policy::answer_block). When `stats` is
    /// non-empty it must hold n_queries slots.
    void predict_dynamic_block(std::span<const std::int32_t> encoded,
                               std::size_t n_queries,
                               const dynamic_query_policy& policy,
                               std::span<std::size_t> out,
                               std::span<dynamic_query_stats> stats = {}) const;

    /// Block cascade on already-packed queries.
    void predict_dynamic_packed_block(
        std::span<const std::uint64_t> queries_words, std::size_t n_queries,
        const dynamic_query_policy& policy, std::span<std::size_t> out,
        std::span<dynamic_query_stats> stats = {}) const;

    /// Payload equality: mode, geometry, packed rows, integer rows, norms.
    /// version() is deliberately excluded — it orders publications of one
    /// trainer, it does not describe the state (a saved and a reloaded
    /// model reach identical payloads through different mutation counts).
    [[nodiscard]] bool operator==(const inference_snapshot& other) const noexcept;

    /// Heap footprint (packed rows + integer rows + norms).
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    std::uint64_t version_ = 0;
    query_mode mode_ = query_mode::binarized;
    class_memory mem_;
    std::vector<std::int32_t> values_; ///< classes x dim, integer mode only
    std::vector<double> norm_sq_;      ///< per class, integer mode only
};

} // namespace uhd::hdc

#endif // UHD_HDC_INFERENCE_SNAPSHOT_HPP
