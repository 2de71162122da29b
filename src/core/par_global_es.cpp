#include "core/par_global_es.hpp"

#include "core/seq_global_es.hpp" // sample_global_switch
#include "core/sequential_apply.hpp"
#include "util/check.hpp"

namespace gesmc {

ParGlobalES::ParGlobalES(const EdgeList& initial, const ChainConfig& config)
    : edges_(initial),
      set_(initial.num_edges()),
      seed_(config.seed),
      pl_(config.pl),
      pool_(make_pool_ref(config.shared_pool, config.threads)) {
    GESMC_CHECK(initial.num_edges() >= 2, "need at least two edges to switch");
    GESMC_CHECK(initial.is_simple(), "initial graph must be simple");
    set_.insert_unique_all(*pool_, edges_.keys());
    if (!runs_sequential_base_case(pool_->num_threads(), initial.num_edges(),
                                   config.small_graph_cutoff)) {
        runner_.emplace(initial.num_edges() / 2, config.prefetch);
    }
}

ParGlobalES::ParGlobalES(const ChainState& state, const ChainConfig& config)
    : ParGlobalES(EdgeList::from_keys(state.num_nodes, state.keys),
                  config_with_state(config, state)) {
    next_global_ = state.counter;
    stats_ = state.stats;
}

ParGlobalES::~ParGlobalES() = default;

ChainState ParGlobalES::snapshot() const {
    ChainState state;
    state.algorithm = ChainAlgorithm::kParGlobalES;
    state.seed = seed_;
    state.counter = next_global_;
    state.pl = pl_;
    state.num_nodes = edges_.num_nodes();
    state.keys = edges_.keys();
    state.stats = stats_;
    return state;
}

void ParGlobalES::run_supersteps(std::uint64_t count, RunObserver* observer,
                                 std::uint64_t replicate) {
    for (std::uint64_t step = 0; step < count; ++step) {
        const std::uint64_t l =
            sample_global_switch(switch_scratch_, perm_scratch_, edges_.num_edges(), seed_,
                                 next_global_++, pl_, *pool_);
        stats_.attempted += l;
        if (!runner_) {
            // §7 base case: the outcome is identical (the superstep
            // reproduces sequential execution).
            UniqueWriter writer(set_);
            for (const Switch& sw : switch_scratch_) {
                apply_switch_sequential(edges_.keys(), writer, sw, stats_);
            }
            writer.commit();
            last_rounds_ = 0;
        } else {
            const SuperstepResult result =
                runner_->run(*pool_, edges_.keys(), set_, switch_scratch_);
            last_rounds_ = result.rounds;
            stats_.accepted += result.accepted;
            stats_.rejected_loop += result.rejected_loop;
            stats_.rejected_edge += result.rejected_edge;
            stats_.rounds_total += result.rounds;
            stats_.rounds_max = std::max<std::uint64_t>(stats_.rounds_max, result.rounds);
            stats_.first_round_seconds += result.first_round_seconds;
            stats_.later_rounds_seconds += result.later_rounds_seconds;
        }
        ++stats_.supersteps;
        set_.maybe_rebuild(*pool_);
        if (observer != nullptr) observer->on_superstep(replicate, *this);
    }
}

} // namespace gesmc
