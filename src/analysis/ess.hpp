/// \file ess.hpp
/// \brief Streaming convergence estimator for adaptive superstep budgets.
///
/// The paper's evaluation (and the fixed `supersteps` config) runs every
/// replicate for a constant budget — the "10x supersteps" folklore that
/// Stauffer & Barbosa (cs/0512105) spend a paper questioning.  This module
/// closes the loop: an EssEstimator watches a single replicate's superstep
/// stream (through the ordinary RunObserver hook — no new chain API) and
/// emits a deterministic *stop verdict* once the chain looks mixed.
///
/// Two signals, both pure functions of the observed graph sequence:
///
///  * The Ray–Pinar–Seshadhri thinned G2/BIC test (ThinningAutocorrelation)
///    gives the fraction of tracked edges whose series still looks
///    first-order Markov — "non-independent".  The verdict reads the
///    fraction at the *largest thinning value with >= 3 retained samples*:
///    early in the run the deeper ladder rungs have no evidence yet and
///    (by design of bic_prefers_independent) count every edge as
///    non-independent, which would make early stops impossible.
///
///  * An effective-sample-size proxy: the scalar overlap series
///    X_t = |E(G_t) ∩ E(G_0)| summarised by a streaming exact lag-1
///    autocorrelation, the AR(1) integrated autocorrelation time
///    tau = (1 + rho) / (1 - rho), and ESS = n / tau.
///
/// Determinism contract: the verdict depends only on (initial graph, the
/// superstep-indexed graph sequence, AdaptiveStopConfig).  It is evaluated
/// only at absolute check steps (s >= min_supersteps and
/// s % check_every == 0), so chunk sizes, checkpoint cadence, scheduling
/// policy and resume points can never move a stop.  Estimator state
/// serializes bit-exactly (save/restore) so a killed run resumes onto the
/// identical trajectory.
#pragma once

#include "analysis/autocorrelation.hpp"
#include "core/chain.hpp"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace gesmc {

/// Knobs of the adaptive stopping rule (pipeline config keys of the same
/// names, see docs/adaptive.md).
struct AdaptiveStopConfig {
    double ess_target = 32.0;      ///< stop once ESS >= this ...
    double mixing_tau = 0.2;       ///< ... and non-independent fraction <= this
    std::uint64_t min_supersteps = 8;    ///< never stop before this many
    std::uint64_t max_supersteps = 200;  ///< hard budget (fallback stop)
    std::uint64_t check_every = 2;       ///< verdict cadence (absolute steps)
    std::uint32_t confirm_window = 3;    ///< consecutive passing checks required
};

bool operator==(const AdaptiveStopConfig& a, const AdaptiveStopConfig& b);

/// Streaming *exact* lag-1 autocorrelation of a scalar series, O(1) state.
/// Feeds the AR(1) ESS proxy; public so tests can drive it with synthetic
/// AR(1) series and check the estimate against the closed form.
class ScalarAutocorrelation {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

    /// Lag-1 sample autocorrelation (0 when < 3 samples or the series is
    /// constant — a constant series carries no mixing evidence).
    [[nodiscard]] double rho() const noexcept;

    /// AR(1) integrated autocorrelation time tau = (1+rho)/(1-rho),
    /// clamped to >= 1.
    [[nodiscard]] double tau() const noexcept;

    /// ESS = n / tau; 0 until 3 samples exist, and a constant series
    /// reports ESS = 1 (one effective observation, not n).
    [[nodiscard]] double ess() const noexcept;

    void save(std::ostream& os) const;
    static ScalarAutocorrelation restore(std::istream& is);

private:
    std::uint64_t n_ = 0;
    double sum_ = 0;    ///< sum of x_t
    double sumsq_ = 0;  ///< sum of x_t^2
    double cross_ = 0;  ///< sum of x_t * x_{t-1}
    double first_ = 0;  ///< x_1
    double last_ = 0;   ///< x_n
};

/// Per-replicate convergence watcher.  Construct against the chain's
/// superstep-0 state, call observe() after every superstep (exactly once,
/// in order), and poll stopped() — or read stop_superstep() after the run.
class EssEstimator {
public:
    /// `max_thinning` bounds the G2/BIC ladder (default_thinning_values);
    /// callers derive it from the superstep budget.
    EssEstimator(const Chain& chain, const AdaptiveStopConfig& config,
                 std::uint32_t max_thinning);

    /// Records the state after one more superstep and, at check steps,
    /// evaluates the stopping rule.  Further calls after the verdict fired
    /// keep accumulating (harmless) but the verdict is final.
    void observe(const Chain& chain);

    [[nodiscard]] const AdaptiveStopConfig& config() const noexcept {
        return config_;
    }

    [[nodiscard]] std::uint64_t supersteps() const noexcept {
        return autocorr_.supersteps();
    }

    /// True once the stopping rule has held for confirm_window consecutive
    /// checks.  Monotone: never reverts to false.
    [[nodiscard]] bool stopped() const noexcept { return stop_superstep_.has_value(); }

    /// The absolute superstep at which the verdict fired (the last check
    /// of the confirmation window), if it has.
    [[nodiscard]] std::optional<std::uint64_t> stop_superstep() const noexcept {
        return stop_superstep_;
    }

    /// Current ESS estimate of the overlap series.
    [[nodiscard]] double ess() const noexcept { return overlap_.ess(); }

    /// Current AR(1) autocorrelation time of the overlap series.
    [[nodiscard]] double act_tau() const noexcept { return overlap_.tau(); }

    /// Non-independent edge fraction at the deepest evaluable thinning
    /// (1.0 while no rung has >= 3 retained samples).
    [[nodiscard]] double non_independent_fraction() const;

    /// Serializes the complete estimator (config echo, counters, both
    /// accumulators) under the "GESA"/'E' preamble.  restore() validates
    /// the config echo against `config`, and the thinning ladder against
    /// the one adaptive_max_thinning(config.max_supersteps) yields, and
    /// throws Error on a mismatch — a sidecar recorded under different
    /// knobs or on another ladder continues a different verdict stream and
    /// must not silently steer a resumed run.
    void save(std::ostream& os) const;
    static EssEstimator restore(std::istream& is, const AdaptiveStopConfig& config);

private:
    EssEstimator(const AdaptiveStopConfig& config, ThinningAutocorrelation autocorr);

    /// Deepest thinning index with >= 3 retained samples at step s, if any.
    [[nodiscard]] std::optional<std::size_t> deepest_evaluable(std::uint64_t s) const;

    /// Evaluates one check step; updates streak_/stop_superstep_.
    void check(std::uint64_t s);

    AdaptiveStopConfig config_;
    ThinningAutocorrelation autocorr_;
    ScalarAutocorrelation overlap_;
    std::uint32_t streak_ = 0; ///< consecutive passing checks
    std::optional<std::uint64_t> stop_superstep_;
};

/// The G2/BIC ladder bound the pipeline uses for a given budget: deep
/// enough to be meaningful, never deeper than the budget can feed.
[[nodiscard]] std::uint32_t adaptive_max_thinning(std::uint64_t max_supersteps);

} // namespace gesmc
