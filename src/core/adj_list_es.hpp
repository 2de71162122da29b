/// \file adj_list_es.hpp
/// \brief AdjListES — adjacency-list ES-MC reference implementation.
///
/// Stands in for the NetworKit / Gengraph comparators of the paper's
/// runtime table (Fig. 4): they are external libraries this build does not link.
/// It mirrors the data-structure choices of that implementation class
/// (paper §5.2): the graph lives in per-node sorted adjacency vectors,
/// existence queries binary-search the smaller neighborhood (O(log d)),
/// and updates shift vector elements (O(d)).  An auxiliary edge array
/// provides uniform edge sampling.  The paper's argument is that hash-set
/// representations beat this by an order of magnitude — our Fig. 4 bench
/// reproduces exactly that comparison.
#pragma once

#include "core/chain.hpp"
#include "core/switch_stream.hpp"

#include <vector>

namespace gesmc {

class AdjListES final : public Chain {
public:
    AdjListES(const EdgeList& initial, const ChainConfig& config);

    /// Restores a snapshotted chain (see Chain::snapshot / make_chain).
    AdjListES(const ChainState& state, const ChainConfig& config);

    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t count, RunObserver* observer,
                        std::uint64_t replicate) override;

    [[nodiscard]] ChainState snapshot() const override;

    [[nodiscard]] const EdgeList& graph() const override { return edges_; }
    [[nodiscard]] bool has_edge(edge_key_t key) const override;
    [[nodiscard]] const ChainStats& stats() const override { return stats_; }
    [[nodiscard]] std::string name() const override { return "AdjListES"; }

private:
    void run_switches(std::uint64_t switches);
    void insert_adj(node_t u, node_t v);
    void erase_adj(node_t u, node_t v);

    EdgeList edges_;
    std::vector<std::vector<node_t>> adjacency_; ///< sorted neighbor vectors
    SwitchStream stream_;
    std::uint64_t next_switch_ = 0;
    ChainStats stats_;
};

} // namespace gesmc
