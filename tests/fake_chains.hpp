// Fake chains shared by the analysis suites: edge series with a known
// shape, so the mixing trackers can be checked without Markov-chain noise.
#pragma once

#include "core/chain.hpp"
#include "rng/bounded.hpp"
#include "rng/mt19937_64.hpp"

#include <cstdint>
#include <string>

namespace gesmc::testing_fakes {

/// Edge {0,1} is always present; every other pair alternates presence with
/// the given period (starting present).
class ScriptedChain final : public Chain {
public:
    explicit ScriptedChain(int period) : period_(period) {
        graph_ = EdgeList::from_pairs(4, {Edge{0, 1}, Edge{2, 3}});
    }
    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t count, RunObserver*, std::uint64_t) override {
        step_ += count;
    }
    [[nodiscard]] ChainState snapshot() const override { return {}; }
    [[nodiscard]] const EdgeList& graph() const override { return graph_; }
    [[nodiscard]] bool has_edge(edge_key_t key) const override {
        if (key == edge_key(0, 1)) return true; // constant edge
        return (step_ / period_) % 2 == 0;
    }
    [[nodiscard]] const ChainStats& stats() const override { return stats_; }
    [[nodiscard]] std::string name() const override { return "Scripted"; }

private:
    EdgeList graph_;
    ChainStats stats_;
    int period_;
    std::uint64_t step_ = 0;
};

/// Edge {0,1} and every other pair draw fresh random states each superstep.
/// At superstep 0 the graph's edge {2,3} is reported absent, so a tracked
/// initial edge starts outside the graph.
class IidChain final : public Chain {
public:
    IidChain() : gen_(7) { graph_ = EdgeList::from_pairs(4, {Edge{0, 1}, Edge{2, 3}}); }
    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t, RunObserver*, std::uint64_t) override {
        state0_ = uniform_bit(gen_);
        state1_ = uniform_bit(gen_);
    }
    [[nodiscard]] ChainState snapshot() const override { return {}; }
    [[nodiscard]] const EdgeList& graph() const override { return graph_; }
    [[nodiscard]] bool has_edge(edge_key_t key) const override {
        return key == edge_key(0, 1) ? state0_ : state1_;
    }
    [[nodiscard]] const ChainStats& stats() const override { return stats_; }
    [[nodiscard]] std::string name() const override { return "Iid"; }

private:
    EdgeList graph_;
    ChainStats stats_;
    Mt19937_64 gen_;
    bool state0_ = true, state1_ = false;
};

} // namespace gesmc::testing_fakes
