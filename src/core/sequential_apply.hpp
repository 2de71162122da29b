/// \file sequential_apply.hpp
/// \brief Shared single-switch executor for the sequential chains and the
/// sequential base case of the exact parallel chains.
///
/// SeqES, SeqGlobalES, the base case of ParGlobalES and ParES, and the test
/// reference executor all decide and apply one switch against (edge array,
/// edge set) state with identical semantics (see edge_switch.hpp for the
/// identity-case convention).  The set is anything with contains / erase /
/// insert: a RobinSet, or a UniqueWriter over a ConcurrentEdgeSet.
#pragma once

#include "core/chain.hpp"
#include "core/edge_switch.hpp"
#include "hashing/concurrent_edge_set.hpp"

#include <vector>

namespace gesmc {

/// A single writer's view of a ConcurrentEdgeSet: the lock-free _unique
/// calls (no stripe lock: nobody else writes), with their counter changes
/// gathered in one delta that commit() publishes.  Owners commit at least
/// before the next maybe_rebuild, whose trigger reads the counters.
class UniqueWriter {
public:
    explicit UniqueWriter(ConcurrentEdgeSet& set) noexcept : set_(set) {}

    [[nodiscard]] bool contains(edge_key_t key) const noexcept { return set_.contains(key); }
    void erase(edge_key_t key) { set_.erase_unique(key, delta_); }
    void insert(edge_key_t key) { set_.insert_unique(key, delta_); }

    /// Publishes the gathered counter changes and starts a new delta.
    void commit() noexcept {
        set_.commit(delta_);
        delta_ = {};
    }

private:
    ConcurrentEdgeSet& set_;
    EdgeSetDelta delta_;
};

/// Decides sw against the current state and applies it if legal.
/// Returns the outcome; updates accepted/rejected counters in `stats`.
template <typename Set>
SwitchOutcome apply_switch_sequential(std::vector<edge_key_t>& keys, Set& set, const Switch& sw,
                                      ChainStats& stats) {
    const edge_key_t k1 = keys[sw.i];
    const edge_key_t k2 = keys[sw.j];
    const auto [t3, t4] = switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
    const SwitchOutcome outcome =
        decide_switch(k1, k2, t3, t4, [&set](edge_key_t k) { return set.contains(k); });
    switch (outcome) {
    case SwitchOutcome::kAccepted: {
        const edge_key_t k3 = edge_key(t3);
        const edge_key_t k4 = edge_key(t4);
        if (k3 != k1 && k3 != k2) { // identity no-op needs no set updates
            set.erase(k1);
            set.erase(k2);
            set.insert(k3);
            set.insert(k4);
        }
        keys[sw.i] = k3;
        keys[sw.j] = k4;
        ++stats.accepted;
        break;
    }
    case SwitchOutcome::kRejectedLoop:
        ++stats.rejected_loop;
        break;
    case SwitchOutcome::kRejectedEdge:
        ++stats.rejected_edge;
        break;
    }
    return outcome;
}

} // namespace gesmc
