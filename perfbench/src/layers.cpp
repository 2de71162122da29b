/// The traced run: spans around the calls into each layer, and the
/// program's own counters read at those boundaries.  Every time is
/// steady_clock seconds measured from the benchmark's side; nothing inside
/// the library is instrumented beyond what it already counts.
#include "bench.hpp"

#include "analysis/ess.hpp"
#include "core/parallel_superstep.hpp"
#include "core/seq_global_es.hpp"
#include "graph/adjacency.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/dependency_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/pipeline.hpp"
#include "util/timer.hpp"

#include <filesystem>
#include <memory>
#include <optional>

namespace perfbench {

using namespace gesmc;

namespace {

constexpr int kRepeats = 3;

/// Chain::run_supersteps(1) one call at a time, with EssEstimator::observe
/// after each on adaptive workloads — the pipeline's replicate 0 with its
/// two layers separated.
struct SuperstepLoop {
    std::unique_ptr<Chain> chain;
    std::vector<double> superstep_s;
    std::vector<double> observe_s;
    std::uint64_t checks = 0;
};

SuperstepLoop run_superstep_loop(const Prepared& run, const EdgeList& initial) {
    const PipelineConfig& config = run.config;
    SuperstepLoop loop;
    loop.chain = make_chain(run.algorithm, initial, chain_config(config, run.chain_threads, 0));
    AdaptiveStopConfig stop;
    stop.ess_target = config.ess_target;
    stop.mixing_tau = config.mixing_tau;
    stop.min_supersteps = config.min_supersteps;
    stop.max_supersteps = config.max_supersteps;
    stop.check_every = config.check_every;
    std::optional<EssEstimator> estimator;
    if (config.adaptive) {
        estimator.emplace(*loop.chain, stop, adaptive_max_thinning(config.max_supersteps));
    }
    const std::uint64_t budget = config.adaptive ? config.max_supersteps : config.supersteps;
    for (std::uint64_t s = 1; s <= budget; ++s) {
        const Timer step;
        loop.chain->run_supersteps(1);
        loop.superstep_s.push_back(step.elapsed_s());
        if (!estimator) continue;
        const Timer observe;
        estimator->observe(*loop.chain);
        loop.observe_s.push_back(observe.elapsed_s());
        // The verdict is evaluated only at these steps (ess.hpp), so
        // stopping on the first stopped() is the pipeline's stop.
        if (s >= stop.min_supersteps && s % stop.check_every == 0) ++loop.checks;
        if (estimator->stopped()) break;
    }
    return loop;
}

/// ParGlobalES rebuilt from its public parts, with each phase timed, plus
/// the hashing layer's calls replayed on mirror tables against the same
/// key sets.  Ends on the replayed chain's edge keys.
struct Replay {
    double sample_s = 0;
    double runner_s = 0;
    double rounds_s = 0;
    double rebuild_s = 0;
    std::uint64_t rebuilds = 0;
    double register_s = 0;
    double contains_s = 0;
    double erase_s = 0;
    double insert_s = 0;
    std::vector<edge_key_t> keys;
};

Replay replay_par_global_es(const EdgeList& initial, const ChainConfig& config,
                            std::uint64_t supersteps, Tally& tally) {
    Replay r;
    ThreadPool pool(config.threads);
    std::vector<edge_key_t>& keys = r.keys;
    keys = initial.keys();
    const std::uint64_t m = keys.size();
    ConcurrentEdgeSet set(m, config.edge_set_backend);
    ConcurrentEdgeSet mirror(m, config.edge_set_backend);
    for (const edge_key_t k : keys) {
        set.insert_unique(k);
        mirror.insert_unique(k);
    }
    SuperstepRunner runner(m / 2, config.prefetch);
    DependencyTable table(m / 2);
    std::vector<Switch> switches;
    std::vector<std::uint32_t> perm;
    std::vector<edge_key_t> before;
    std::vector<std::uint32_t> rewired;
    std::atomic<std::uint64_t> apply_misses{0};

    for (std::uint64_t g = 0; g < supersteps; ++g) {
        before = keys;
        Timer t;
        const std::uint64_t l =
            sample_global_switch(switches, perm, m, config.seed, g, config.pl, pool);
        r.sample_s += t.elapsed_s();

        t.restart();
        const SuperstepResult result = runner.run(pool, keys, set, switches);
        r.runner_s += t.elapsed_s();
        r.rounds_s += result.first_round_seconds + result.later_rounds_seconds;

        t.restart();
        if (set.needs_rebuild()) {
            set.rebuild();
            ++r.rebuilds;
        }
        r.rebuild_s += t.elapsed_s();

        // Hashing replay: the superstep's registration, target lookups and
        // apply, on the mirror tables that still hold `before`.
        t.restart();
        table.begin_superstep(l, pool);
        pool.for_chunks(0, l, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                const Switch sw = switches[k];
                const edge_key_t k1 = before[sw.i];
                const edge_key_t k2 = before[sw.j];
                const auto [t3, t4] =
                    switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
                const auto idx = static_cast<std::uint32_t>(k);
                table.register_erase(k1, idx, tid);
                table.register_erase(k2, idx, tid);
                if (!t3.is_loop()) table.register_insert(edge_key(t3), idx, 0, tid);
                if (!t4.is_loop()) table.register_insert(edge_key(t4), idx, 1, tid);
            }
        });
        r.register_s += t.elapsed_s();

        t.restart();
        std::atomic<std::uint64_t> found{0}; // keeps the lookups' results live
        pool.for_chunks(0, l, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t local = 0;
            for (std::uint64_t k = lo; k < hi; ++k) {
                const Switch sw = switches[k];
                const auto [t3, t4] = switch_targets(edge_from_key(before[sw.i]),
                                                     edge_from_key(before[sw.j]), sw.g != 0);
                if (!t3.is_loop()) local += mirror.contains(edge_key(t3)) ? 1 : 0;
                if (!t4.is_loop()) local += mirror.contains(edge_key(t4)) ? 1 : 0;
            }
            found.fetch_add(local, std::memory_order_relaxed);
        });
        r.contains_s += t.elapsed_s();

        // A switch rewired iff its slots changed (the identity switch
        // changes nothing and, like in the runner, is not applied).
        rewired.clear();
        for (std::uint64_t k = 0; k < l; ++k) {
            if (keys[switches[k].i] != before[switches[k].i]) {
                rewired.push_back(static_cast<std::uint32_t>(k));
            }
        }
        const auto apply = [&](bool erase) {
            pool.for_chunks(0, rewired.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                std::uint64_t misses = 0;
                for (std::uint64_t u = lo; u < hi; ++u) {
                    const Switch sw = switches[rewired[u]];
                    for (const std::uint32_t slot : {sw.i, sw.j}) {
                        const bool ok = erase ? mirror.erase_unique(before[slot])
                                              : mirror.insert_unique(keys[slot]);
                        misses += ok ? 0 : 1;
                    }
                }
                apply_misses.fetch_add(misses, std::memory_order_relaxed);
            });
        };
        t.restart();
        apply(true);
        r.erase_s += t.elapsed_s();
        t.restart();
        apply(false);
        r.insert_s += t.elapsed_s();
        mirror.maybe_rebuild();
    }

    bool mirrored = apply_misses.load() == 0 && mirror.size() == m && set.size() == m;
    for (const edge_key_t k : keys) mirrored = mirrored && mirror.contains(k) && set.contains(k);
    tally.attempt();
    tally.check(mirrored, "hashing replay: every erase and insert hit, tables hold the final keys");
    return r;
}

double sum(const std::vector<double>& values) {
    double total = 0;
    for (const double v : values) total += v;
    return total;
}

struct PipelineTrace {
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    std::vector<double> replicate_s;
    double idle_frac = 0;
    std::uint64_t checkpoints = 0;
    obs::MetricsSnapshot counters;
    CheckedOutputs outputs; ///< of the last traced call
};

/// Alternates untraced and traced run_pipeline calls until the next pair
/// would overrun --seconds (at least one pair).  The traced call turns on
/// the metrics registry and observes replicate completions.
PipelineTrace trace_pipeline(const Prepared& run, const RunArgs& args,
                             const std::vector<std::uint32_t>& input_degrees, Tally& tally) {
    PipelineTrace trace;
    const Timer measuring;
    do {
        {
            FinalGraphCapture capture(run);
            const PipelineCall call = call_pipeline(run.config, timed_observer(run, capture));
            (void)check_outputs(run, call, capture, input_degrees, nullptr, tally);
            trace.untraced_walls.push_back(call.wall_s);
        }
        TracingObserver observer(run);
        obs::MetricsRegistry::instance().reset();
        obs::set_metrics_enabled(true);
        const PipelineCall call = call_pipeline(run.config, &observer);
        obs::set_metrics_enabled(false);
        trace.counters = obs::MetricsRegistry::instance().snapshot();
        trace.outputs = check_outputs(run, call, observer, input_degrees, nullptr, tally);
        trace.traced_walls.push_back(call.wall_s);
        trace.replicate_s = observer.replicate_seconds();
        trace.idle_frac = 1.0 - ratio(sum(trace.replicate_s),
                                      static_cast<double>(call.report.max_concurrent) *
                                          call.wall_s);
        trace.checkpoints = observer.checkpoints();
    } while (measuring.elapsed_s() + trace.untraced_walls.back() + trace.traced_walls.back() <=
             args.seconds);
    return trace;
}

double counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
    for (const auto& [key, value] : snapshot.counters) {
        if (key == name) return static_cast<double>(value);
    }
    return 0;
}

double gauge(const obs::MetricsSnapshot& snapshot, const std::string& name) {
    for (const auto& [key, value] : snapshot.gauges) {
        if (key == name) return static_cast<double>(value);
    }
    return 0;
}

/// One replicate's output work, as the pipeline does it: text edge list,
/// chain-state checkpoint, structural metrics.  Median of repeats.
struct GraphLayer {
    double write_text_s = 0;
    double write_state_s = 0;
    double metrics_s = 0;
    double bytes_written = 0;
};

GraphLayer measure_graph_layer(const Chain& chain, const std::string& work_dir) {
    const std::string text = work_dir + "/layer_graph.txt";
    const std::string state = work_dir + "/layer_state.gesc";
    std::vector<double> text_s, state_s, metrics_s;
    for (int i = 0; i < kRepeats; ++i) {
        Timer t;
        write_edge_list_file(text, chain.graph());
        text_s.push_back(t.elapsed_s());
        t.restart();
        write_chain_state_file_atomic(state, chain.snapshot());
        state_s.push_back(t.elapsed_s());
        t.restart();
        const Adjacency adj(chain.graph());
        volatile double sink = static_cast<double>(triangle_count(adj)) +
                               global_clustering(adj) + degree_assortativity(chain.graph()) +
                               static_cast<double>(connected_components(adj));
        (void)sink;
        metrics_s.push_back(t.elapsed_s());
    }
    GraphLayer g;
    g.write_text_s = median(text_s);
    g.write_state_s = median(state_s);
    g.metrics_s = median(metrics_s);
    g.bytes_written = static_cast<double>(std::filesystem::file_size(text) +
                                          std::filesystem::file_size(state));
    return g;
}

} // namespace

RunResult run_layers(const Prepared& run, const RunArgs& args) {
    RunResult result;
    Tally& tally = result.tally;
    const PipelineConfig& config = run.config;

    // gen and core set-up, each on its own.
    std::vector<double> materialize_s, construct_s;
    std::vector<std::uint32_t> input_degrees;
    for (int i = 0; i < kRepeats; ++i) {
        Timer t;
        const EdgeList initial = materialize_input(config);
        materialize_s.push_back(t.elapsed_s());
        t.restart();
        const auto chain =
            make_chain(run.algorithm, initial, chain_config(config, run.chain_threads, 0));
        construct_s.push_back(t.elapsed_s());
        if (input_degrees.empty()) input_degrees = initial.degrees();
    }

    const PipelineTrace trace = trace_pipeline(run, args, input_degrees, tally);
    const std::string prefix = "hashset." + to_string(config.edge_set_backend) + ".";
    const double lookups = counter(trace.counters, prefix + "lookups");
    const double probe_ops = lookups + counter(trace.counters, prefix + "inserts");

    const EdgeList initial = materialize_input(config);
    SuperstepLoop loop = run_superstep_loop(run, initial);
    const ChainStats stats = loop.chain->stats();
    const std::uint64_t supersteps = stats.supersteps;
    tally.attempt();
    tally.check(!trace.outputs.digests.empty() &&
                    digest(loop.chain->graph().sorted_keys()) == trace.outputs.digests[0],
                "the superstep loop ends on the pipeline's replicate 0 graph");
    const GraphLayer graph = run.writes_files() && config.output_format == OutputFormat::kText
                                 ? measure_graph_layer(*loop.chain, args.work_dir)
                                 : GraphLayer{};

    // The replay must end where make_chain(kParGlobalES) ends for the same
    // seed and supersteps, or its phase times describe another program.
    const ChainConfig chain_cfg = chain_config(config, run.chain_threads, 0);
    std::vector<edge_key_t> reference;
    if (run.algorithm == ChainAlgorithm::kParGlobalES) {
        reference = loop.chain->graph().keys();
    }
    loop.chain.reset();
    if (reference.empty()) {
        const auto par = make_chain(ChainAlgorithm::kParGlobalES, initial, chain_cfg);
        par->run_supersteps(supersteps);
        reference = par->graph().keys();
    }
    // The paper's sequential baseline for the same work (gnp-2m-par only).
    double twin_s = 0;
    if (!run.workload->exact_twin.empty()) {
        const TwinRun twin = run_exact_twin(run, initial);
        twin_s = twin.seconds;
        tally.attempt();
        tally.check(twin.keys == reference, run.workload->name + " final edge keys equal " +
                                                run.workload->exact_twin + "'s");
    }
    const Replay replay = replay_par_global_es(initial, chain_cfg, supersteps, tally);
    tally.attempt();
    tally.check(replay.keys == reference,
                "ParGlobalES replay ends on make_chain(kParGlobalES)'s edge keys");

    const double steps = static_cast<double>(supersteps);
    const double attempted = static_cast<double>(stats.attempted);
    const double observe_total = sum(loop.observe_s);
    result.metrics = {
        {"gen.materialize_s", median(materialize_s), "s"},
        {"core.construct_s", median(construct_s), "s"},
        {"core.superstep_s.p50", median(loop.superstep_s), "s"},
        {"core.superstep_s.max", percentile(loop.superstep_s, 1.0), "s"},
        {"core.rounds_per_superstep", ratio(static_cast<double>(stats.rounds_total), steps),
         "count"},
        {"core.rounds_s", ratio(stats.first_round_seconds + stats.later_rounds_seconds, steps),
         "s"},
        {"core.accept_ratio", ratio(static_cast<double>(stats.accepted), attempted), "ratio"},
        {"core.reject_edge_ratio", ratio(static_cast<double>(stats.rejected_edge), attempted),
         "ratio"},
        {"core.reject_loop_ratio", ratio(static_cast<double>(stats.rejected_loop), attempted),
         "ratio"},
        {"core.seq_baseline_s", twin_s, "s"},
        {"rng.sample_global_switch_s", ratio(replay.sample_s, steps), "s"},
        {"core.superstep_runner_s", ratio(replay.runner_s, steps), "s"},
        {"core.register_apply_s", ratio(replay.runner_s - replay.rounds_s, steps), "s"},
        {"hashing.rebuild_s", ratio(replay.rebuild_s, steps), "s"},
        {"hashing.rebuilds", static_cast<double>(replay.rebuilds), "count"},
        {"hashing.replay.register_s", ratio(replay.register_s, steps), "s"},
        {"hashing.replay.contains_s", ratio(replay.contains_s, steps), "s"},
        {"hashing.replay.erase_s", ratio(replay.erase_s, steps), "s"},
        {"hashing.replay.insert_s", ratio(replay.insert_s, steps), "s"},
        {"hashing.probe_steps_per_op", ratio(counter(trace.counters, prefix + "probe_steps"),
                                             probe_ops),
         "count"},
        {"hashing.cas_retries", counter(trace.counters, prefix + "cas_retries"), "count"},
        {"hashing.psl_max", gauge(trace.counters, prefix + "psl_max"), "count"},
        {"hashing.lookups", lookups, "count"},
        {"pipeline.replicate_s.p50", median(trace.replicate_s), "s"},
        {"pipeline.replicate_s.p90", percentile(trace.replicate_s, 0.9), "s"},
        {"pipeline.idle_frac", trace.idle_frac, "ratio"},
        {"pipeline.checkpoints", static_cast<double>(trace.checkpoints), "count"},
        {"graph.write_text_s", graph.write_text_s, "s"},
        {"graph.write_state_s", graph.write_state_s, "s"},
        {"graph.metrics_s", graph.metrics_s, "s"},
        {"graph.bytes_written", graph.bytes_written, "bytes"},
        {"analysis.observe_s", median(loop.observe_s), "s"},
        {"analysis.checks", static_cast<double>(loop.checks), "count"},
        {"analysis.share", ratio(observe_total, observe_total + sum(loop.superstep_s)), "ratio"},
        {"obs.trace_overhead_frac",
         ratio(median(trace.traced_walls), median(trace.untraced_walls)) - 1.0, "ratio"},
    };
    return result;
}

} // namespace perfbench
