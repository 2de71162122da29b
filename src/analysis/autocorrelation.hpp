/// \file autocorrelation.hpp
/// \brief Autocorrelation-based mixing analysis (paper §6.1).
///
/// Implements the non-parametric stopping criterion of Ray, Pinar &
/// Seshadhri ("A stopping criterion for Markov Chains when generating
/// independent random graphs", J. Complex Networks 2015) as used by the
/// paper:
///
///  * For each tracked edge e, the chain induces a binary time series
///    Z_t = [e in G_t], sampled after every superstep.
///  * For each thinning value k in a fixed set T, the k-thinned series
///    {Z_{tk}} is summarized *on the fly* into a 2x2 transition count
///    matrix (the paper's memory-saving streaming formulation).
///  * An edge is deemed *independent* at thinning k if the Bayesian
///    Information Criterion prefers an i.i.d. Bernoulli model over a
///    first-order Markov model: G2 <= ln(N), where G2 is the likelihood-
///    ratio statistic of the two models (one extra parameter, hence the
///    ln(N) penalty) and N the number of observed transitions.
///  * The reported curve is the fraction of *non-independent* edges as a
///    function of k — Figure 2/3 of the paper.
///
/// Tracked edges: either all edges of the initial graph (the paper's
/// choice for NetRep, memory Theta(m)) or every possible node pair (viable
/// for small n, closer to the SynPld setup).
#pragma once

#include "core/chain.hpp"

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace gesmc {

/// Thinning set used throughout (paper: avoid large primes and numbers
/// with many divisors; quantization is inconsequential).
std::vector<std::uint32_t> default_thinning_values(std::uint32_t max_k);

/// Streaming G2/BIC independence test over thinned binary series.
class ThinningAutocorrelation {
public:
    enum class Track { kInitialEdges, kAllPairs };

    /// Prepares tracking for `chain`'s current graph (superstep 0 state).
    ThinningAutocorrelation(const Chain& chain, std::vector<std::uint32_t> thinning,
                            Track track);

    /// Records the state after one more superstep: one has_edge probe per
    /// tracked edge, shared by every rung due at this step.  Returns how
    /// many tracked edges are present (the overlap X_t when tracking the
    /// initial edges).  Call exactly once per superstep, in order.
    std::size_t observe(const Chain& chain);

    /// Tracked edges present at superstep 0 (X_0 of the overlap series).
    [[nodiscard]] std::size_t initial_overlap() const noexcept;

    /// Number of supersteps observed so far.
    [[nodiscard]] std::uint64_t supersteps() const noexcept { return step_; }

    [[nodiscard]] const std::vector<std::uint32_t>& thinning() const noexcept {
        return thinning_;
    }

    /// The edge keys whose binary series are tracked (superstep-0 order).
    [[nodiscard]] const std::vector<edge_key_t>& tracked() const noexcept {
        return tracked_;
    }

    /// Bytes held by the counts matrix, the per-edge state arrays and the
    /// tracked-key vector — the price of streaming the test: 8 bytes per
    /// (rung, edge) cell plus 10 per edge, so 98 bytes per edge on an
    /// 11-rung ladder.  Published as the analysis.autocorr.bytes gauge
    /// when metrics are enabled so adaptive mode's overhead shows up in
    /// telemetry.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

    /// Serializes the complete observer state (thinning ladder, tracked
    /// keys, step count, per-edge transition counts — all four, plus the
    /// last retained state).  restore() rebuilds an observer that
    /// continues the identical stream — used by the adaptive estimator's
    /// checkpoint sidecar (analysis/ess.*) — and throws Error on counts
    /// that no observed stream can produce (see Cell).
    void save(std::ostream& os) const;
    static ThinningAutocorrelation restore(std::istream& is);

    /// Fraction of tracked edges whose k-thinned series the BIC still
    /// considers first-order Markov (non-independent), for thinning_[ki].
    [[nodiscard]] double non_independent_fraction(std::size_t ki) const;

    /// Convenience: fractions for all thinning values.
    [[nodiscard]] std::vector<double> non_independent_fractions() const;

private:
    /// One (rung, edge) cell.  Every cell of rung k holds exactly
    /// floor(s / k) transitions at step s, and an edge's up and down moves
    /// differ by (last state - superstep-0 state), so two counts, the last
    /// retained state and the edge's superstep-0 state `first` determine
    /// all four:
    ///   n01 = n10 + prev - first,   n00 = floor(s / k) - n11 - n10 - n01.
    struct Cell {
        std::uint32_t n11 = 0;
        std::uint32_t n10_prev = 0; ///< (n10 << 1) | prev
    };

    ThinningAutocorrelation() = default; ///< for restore() only

    /// Fills present_ with one has_edge probe per tracked edge; returns
    /// the number present.
    std::size_t probe(const Chain& chain);

    /// The full 2x2 transition counts of cell `c` of edge `e` after
    /// `transitions` retained steps.
    void cell_counts(const Cell& c, std::size_t e, std::uint64_t transitions,
                     std::uint32_t counts[2][2]) const;

    std::vector<std::uint32_t> thinning_;
    std::vector<edge_key_t> tracked_;
    /// cells_[ki * tracked_.size() + e].  Dense on purpose: every tracked
    /// edge is touched at every retained step, so a |thinning| x |tracked|
    /// matrix of 8-byte cells is the compact layout — and on large graphs
    /// still the dominant cost of running the test (8.8 MB for
    /// m = 10^5 on the 11-rung ladder of a 200-superstep budget).
    /// memory_bytes() exposes the realized size.
    std::vector<Cell> cells_;
    std::vector<std::uint8_t> first_;   ///< per edge: state at superstep 0
    std::vector<std::uint8_t> present_; ///< per edge: state at the last probe
    std::uint64_t step_ = 0;
};

/// The G2 statistic for a 2x2 transition count matrix (0*ln(0) := 0).
double g2_statistic(const std::uint32_t counts[2][2]);

/// BIC rule: true iff the independent model is preferred (G2 <= ln(N)).
bool bic_prefers_independent(const std::uint32_t counts[2][2]);

} // namespace gesmc
