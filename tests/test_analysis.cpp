// Tests for the analysis module: G2/BIC independence test, thinning
// tracker, mixing-curve driver, and proxy metrics.
#include "fake_chains.hpp"

#include "analysis/autocorrelation.hpp"
#include "analysis/convergence.hpp"
#include "analysis/proxy_metrics.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gesmc {
namespace {

// -------------------------------------------------------------- G2 / BIC

TEST(G2, ZeroForEmptyAndDegenerate) {
    const std::uint32_t empty[2][2] = {{0, 0}, {0, 0}};
    EXPECT_EQ(g2_statistic(empty), 0.0);
    const std::uint32_t constant[2][2] = {{100, 0}, {0, 0}}; // never flips
    EXPECT_EQ(g2_statistic(constant), 0.0);
}

TEST(G2, ZeroWhenTransitionsMatchMarginals) {
    // Perfectly independent counts: n_ij = row_i * col_j / N exactly.
    const std::uint32_t indep[2][2] = {{40, 40}, {10, 10}};
    EXPECT_NEAR(g2_statistic(indep), 0.0, 1e-9);
    EXPECT_TRUE(bic_prefers_independent(indep));
}

TEST(G2, LargeForStickySeries) {
    // A series that almost never flips is strongly Markov.
    const std::uint32_t sticky[2][2] = {{50, 2}, {2, 50}};
    EXPECT_GT(g2_statistic(sticky), 50.0);
    EXPECT_FALSE(bic_prefers_independent(sticky));
}

TEST(G2, MatchesHandComputedValue) {
    // G2 = 2 * sum n_ij ln(n_ij N / (row_i col_j)).
    const std::uint32_t c[2][2] = {{30, 10}, {10, 30}};
    const double n = 80, r0 = 40, r1 = 40, c0 = 40, c1 = 40;
    const double expect = 2 * (30 * std::log(30 * n / (r0 * c0)) +
                               10 * std::log(10 * n / (r0 * c1)) +
                               10 * std::log(10 * n / (r1 * c0)) +
                               30 * std::log(30 * n / (r1 * c1)));
    EXPECT_NEAR(g2_statistic(c), expect, 1e-9);
}

TEST(Bic, InsufficientDataIsNotIndependent) {
    const std::uint32_t one[2][2] = {{1, 0}, {0, 0}};
    EXPECT_FALSE(bic_prefers_independent(one));
}

// ----------------------------------------------------------- thinning set

TEST(Thinning, DefaultLadder) {
    const auto t = default_thinning_values(32);
    EXPECT_EQ(t.front(), 1u);
    EXPECT_EQ(t.back(), 32u);
    for (std::size_t i = 1; i < t.size(); ++i) EXPECT_LT(t[i - 1], t[i]);
    const auto t48 = default_thinning_values(48);
    EXPECT_EQ(t48.back(), 48u);
}

// ------------------------------------------------------- tracker on chains

using testing_fakes::IidChain;
using testing_fakes::ScriptedChain;

TEST(Tracker, PeriodicEdgeIsMarkovAtFineThinning) {
    // Period-8 square wave: at thinning 1 the series is sticky (Markov);
    // thinning 8 flips every sample (also Markov!); the G2 detects both.
    ScriptedChain chain(8);
    ThinningAutocorrelation tracker(chain, {1}, ThinningAutocorrelation::Track::kInitialEdges);
    for (int step = 0; step < 400; ++step) {
        chain.run_supersteps(1);
        tracker.observe(chain);
    }
    // One constant edge (independent by G2 convention) + one sticky edge.
    EXPECT_NEAR(tracker.non_independent_fraction(0), 0.5, 1e-9);
}

TEST(Tracker, IidEdgesAreIndependent) {
    // A chain whose tracked edge states are freshly random each superstep.
    IidChain chain;
    ThinningAutocorrelation tracker(chain, {1, 2}, ThinningAutocorrelation::Track::kInitialEdges);
    for (int step = 0; step < 600; ++step) {
        chain.run_supersteps(1);
        tracker.observe(chain);
    }
    EXPECT_EQ(tracker.non_independent_fraction(0), 0.0);
    EXPECT_EQ(tracker.non_independent_fraction(1), 0.0);
}

TEST(Tracker, AllPairsModeTracksNonEdgesToo) {
    const EdgeList g = EdgeList::from_pairs(4, {Edge{0, 1}, Edge{2, 3}});
    ChainConfig config;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, config);
    ThinningAutocorrelation tracker(*chain, {1}, ThinningAutocorrelation::Track::kAllPairs);
    chain->run_supersteps(1);
    tracker.observe(*chain);
    SUCCEED(); // 6 pairs tracked without issue
}

// --------------------------------------------------------- mixing curves

TEST(MixingCurve, DecreasesWithThinningOnRealChain) {
    // On a small power-law graph the fraction of dependent edges must fall
    // (weakly) as the thinning grows, and be high at thinning 1.
    const EdgeList g = generate_powerlaw_graph(128, 2.2, 3);
    MixingExperimentConfig config;
    config.max_thinning = 16;
    config.samples_at_max = 25;
    config.runs = 2;
    const MixingCurve curve = mixing_curve(ChainAlgorithm::kSeqGlobalES, g, config);
    ASSERT_EQ(curve.mean.size(), curve.thinning.size());
    EXPECT_GT(curve.mean.front(), curve.mean.back());
    // Check rough monotone trend: last value should be among the smallest.
    for (const double v : curve.mean) EXPECT_GE(v + 0.15, curve.mean.back());
}

TEST(MixingCurve, FirstThinningBelowThreshold) {
    MixingCurve curve;
    curve.thinning = {1, 2, 4, 8};
    curve.mean = {0.9, 0.4, 0.05, 0.01};
    EXPECT_EQ(first_thinning_below(curve, 0.5), 2u);
    EXPECT_EQ(first_thinning_below(curve, 0.02), 8u);
    EXPECT_FALSE(first_thinning_below(curve, 0.001).has_value());
}

// ---------------------------------------------------------------- proxies

TEST(Proxies, SeriesHasExpectedShape) {
    const EdgeList g = generate_powerlaw_graph(300, 2.2, 4);
    ChainConfig config;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, config);
    const auto series = proxy_series(*chain, 5);
    ASSERT_EQ(series.size(), 6u);
    EXPECT_EQ(series.front().superstep, 0u);
    EXPECT_EQ(series.back().superstep, 5u);
    // Havel–Hakimi graphs are highly clustered; switching should reduce the
    // triangle count noticeably.
    EXPECT_LT(series.back().triangles, series.front().triangles);
}

} // namespace
} // namespace gesmc
