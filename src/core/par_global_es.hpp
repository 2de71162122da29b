/// \file par_global_es.hpp
/// \brief ParGlobalES — exact parallel G-ES-MC (Algorithm 3 of the paper).
///
/// A global switch has no source dependencies by construction (every edge
/// index appears exactly once in the permutation), so the whole algorithm
/// is: sample the global switch, run one ParallelSuperstep — the simplicity
/// relative to ParES is the point of the paper.  The permutation and the
/// binomial length come from the same deterministic samplers as
/// SeqGlobalES, so both produce identical graphs for identical seeds
/// (exactness tests).  One-thread chains and graphs below
/// ChainConfig::small_graph_cutoff run the sequential base case instead
/// (runs_sequential_base_case) and never build the SuperstepRunner.
#pragma once

#include "core/chain.hpp"
#include "core/parallel_superstep.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "parallel/pool_ref.hpp"
#include "parallel/thread_pool.hpp"

#include <optional>
#include <vector>

namespace gesmc {

class ParGlobalES final : public Chain {
public:
    ParGlobalES(const EdgeList& initial, const ChainConfig& config);

    /// Restores a snapshotted chain (see Chain::snapshot / make_chain).
    ParGlobalES(const ChainState& state, const ChainConfig& config);

    ~ParGlobalES() override;

    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t count, RunObserver* observer,
                        std::uint64_t replicate) override;

    [[nodiscard]] ChainState snapshot() const override;

    [[nodiscard]] const EdgeList& graph() const override { return edges_; }
    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }
    [[nodiscard]] const ChainStats& stats() const override { return stats_; }
    [[nodiscard]] std::string name() const override { return "ParGlobalES"; }

    /// Rounds used by the most recent global switch (Fig. 9 driver).
    [[nodiscard]] std::uint32_t last_rounds() const noexcept { return last_rounds_; }

private:
    EdgeList edges_;
    ConcurrentEdgeSet set_;
    std::uint64_t seed_;
    double pl_;
    PoolRef pool_; ///< owned, or borrowed from ChainConfig::shared_pool
    std::optional<SuperstepRunner> runner_; ///< empty on the §7 base case
    std::vector<Switch> switch_scratch_;
    std::vector<std::uint32_t> perm_scratch_;
    std::uint64_t next_global_ = 0;
    std::uint32_t last_rounds_ = 0;
    ChainStats stats_;
};

} // namespace gesmc
