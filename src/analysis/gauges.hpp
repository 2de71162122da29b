/// \file gauges.hpp
/// \brief Analysis-layer telemetry: mixing and proxy-metric gauges.
///
/// Bridges the analysis subsystem into the live metrics registry so the
/// telemetry sampler (obs/timeseries.hpp), the daemon's `watch` stream and
/// the Prometheus exposition can surface *statistical* health next to the
/// operational counters:
///
///   * MixingGaugeObserver wraps a pipeline RunObserver and feeds each
///     replicate's per-superstep states into a streaming
///     ThinningAutocorrelation tracker; when the replicate finishes it
///     publishes the non-independent-edge fraction (the paper's §6.1
///     stopping criterion) plus the replicate's proxy metrics as gauges.
///   * replicate_z_scores / publish_corpus_z_gauges turn one corpus
///     shard's replicate triangle counts into z-scores against the shard's
///     own replicate distribution — the Milo-style "is this sample an
///     outlier among its siblings" signal — and publish the extremes.
///
/// Gauges are last-writer-wins by design: with replicates (or corpus
/// graphs) finishing concurrently, each gauge tracks the most recently
/// completed unit — a live-dashboard signal, not an archival record (the
/// JSON reports remain the archival path).  Fractions travel as fixed-point
/// milli units (value x 1000, rounded) because gauges are integral; signed
/// values (assortativity, z-scores) survive the trip — the JSON and
/// Prometheus emitters both render negative gauges faithfully.
#pragma once

#include "core/chain.hpp"
#include "pipeline/report.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace gesmc {

class ThinningAutocorrelation; // analysis/autocorrelation.hpp

/// `value` x 1000 rounded to the nearest integer — the fixed-point spelling
/// fractional analysis results use as gauges.  Non-finite values map to 0.
[[nodiscard]] std::int64_t fixed_point_milli(double value);

/// Per-replicate z-scores of the triangle count against the report's own
/// replicate distribution (population stddev).  One entry per replicate,
/// aligned with report.replicates; entries without metrics — and every
/// entry when fewer than two replicates have metrics or the spread is
/// degenerate — are 0.
[[nodiscard]] std::vector<double> replicate_z_scores(const RunReport& report);

/// Publishes one finished shard's replicate z-score extremes as gauges
/// (analysis.corpus.z_replicates, analysis.corpus.max_abs_z_milli,
/// analysis.corpus.last_z_milli).  No-op when metrics are disabled or the
/// report carries no structural metrics.
void publish_corpus_z_gauges(const RunReport& report);

/// RunObserver decorator publishing per-replicate mixing telemetry.
///
/// Forwards every callback to `inner` (may be null) unchanged.  On top of
/// that it maintains one streaming ThinningAutocorrelation tracker per
/// replicate — created at the replicate's first observed superstep, fed on
/// every subsequent one, and collapsed into gauges when the replicate
/// finishes:
///
///   analysis.mixing.non_independent_milli   fraction at the largest
///                                           thinning value, x1000
///   analysis.mixing.thinning                that thinning value k
///   analysis.replicate.triangles            last finished replicate's
///   analysis.replicate.clustering_milli     proxy metrics (when the run
///   analysis.replicate.assortativity_milli  computes them)
///
/// Thread-safety: callbacks for *different* replicates fire concurrently
/// (RunObserver contract), but each replicate's callbacks are sequential on
/// its own thread — so per-replicate slots need no lock, and gauge stores
/// are atomic.  Memory: one tracker is Theta(m x |thinning|) while its
/// replicate runs (freed at on_replicate_done); gate construction on
/// config.metrics, the same opt-in that buys the O(m^1.5) proxy pass.
class MixingGaugeObserver final : public RunObserver {
public:
    /// `supersteps` bounds the thinning ladder (adaptive_max_thinning) so
    /// short runs still observe transitions at the largest thinning value.
    MixingGaugeObserver(std::uint64_t replicates, std::uint64_t supersteps,
                        RunObserver* inner);
    ~MixingGaugeObserver() override;

    void on_superstep(std::uint64_t replicate, const Chain& chain) override;
    void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override;
    void on_replicate_done(const ReplicateReport& report) override;

private:
    /// Tracker slots, one per replicate index; each slot is touched only by
    /// the thread running that replicate (no lock — see class comment).
    std::vector<std::unique_ptr<ThinningAutocorrelation>> slots_;
    std::uint32_t max_thinning_;
    RunObserver* inner_;
};

} // namespace gesmc
