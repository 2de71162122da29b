/// \file bench.hpp
/// \brief The repository benchmark: workloads, output capture and checks,
/// and the two kinds of run (end to end with tracing off, and the traced
/// layer-by-layer run).
///
/// The benchmark drives the library only through its public functions.
/// One process runs one workload with at most min(4, nproc) threads.
#pragma once

#include "stats.hpp"

#include "core/chain.hpp"
#include "graph/edge_list.hpp"
#include "pipeline/config.hpp"
#include "pipeline/report.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
    std::string name;

    /// Filled in by prepare(): seed; threads when 0 (the budget P);
    /// output_dir, when set, is re-rooted under the run's work dir.  A
    /// workload without output_dir is checked on graphs copied from its
    /// chains at their last superstep.
    gesmc::PipelineConfig config;

    /// Algorithm whose chain must end on exactly this workload's final
    /// edge keys (same input, seed and supersteps) on one thread; "" =
    /// none.
    std::string exact_twin;

    /// Power-law workloads run one fixed degree sequence (sampled by the
    /// library with kShapeSeed) for every --seed, realized by Havel-Hakimi
    /// like the paper's SynPld.  The seed then drives every chain.  A
    /// seed-dependent sequence would change the work by 2x between seeds
    /// (hub degrees of gamma ~ 2 samples vary that much), and no bound
    /// could separate that from a regression.
    std::uint64_t shape_n = 0;
    double shape_gamma = 0;
};

inline constexpr std::uint64_t kShapeSeed = 1;

/// The workload table (names as in BENCHMARK.json); null if unknown.
[[nodiscard]] const Workload* find_workload(const std::string& name);

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string work_dir; ///< scratch space for this run's files (caller-owned)
};

/// A workload made concrete for one run.
struct Prepared {
    const Workload* workload = nullptr;
    gesmc::PipelineConfig config;
    gesmc::ChainAlgorithm algorithm = gesmc::ChainAlgorithm::kParGlobalES;
    unsigned threads = 1;       ///< P: the run's thread budget
    unsigned chain_threads = 1; ///< T: P under intra-chain, else 1

    /// Outputs are files in output_dir (else copied from the chains).
    [[nodiscard]] bool writes_files() const { return !config.output_dir.empty(); }
};

/// min(4, nproc): the thread budget every workload may use.
[[nodiscard]] unsigned budget_threads();

/// Online CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned nproc();

/// Fills seed, threads and paths under args.work_dir, and writes the
/// degree file of a power-law workload.
[[nodiscard]] Prepared prepare(const Workload& workload, const RunArgs& args);

/// The ChainConfig the pipeline gives replicate `index` (same seed
/// derivation and knobs), with a private pool of `threads`.
[[nodiscard]] gesmc::ChainConfig chain_config(const gesmc::PipelineConfig& config,
                                              unsigned threads, std::uint64_t index);

/// Copies each replicate's final edge keys (slot order) when its chain
/// reaches the fixed budget, on workloads that write no output files; on
/// the others it copies nothing (their outputs are read back from the
/// files).  Callbacks of different replicates may run concurrently; each
/// writes only its own slot.
class FinalGraphCapture : public gesmc::RunObserver {
public:
    explicit FinalGraphCapture(const Prepared& run);

    void on_superstep(std::uint64_t replicate, const gesmc::Chain& chain) override;

    [[nodiscard]] const std::vector<gesmc::edge_key_t>& keys(std::uint64_t replicate) const {
        return keys_.at(replicate);
    }

private:
    std::uint64_t final_superstep_;
    std::vector<std::vector<gesmc::edge_key_t>> keys_;
};

/// The observer a timed call needs: `capture` when the run writes no
/// files, else none, so that the call runs as a bare gesmc_sample would.
[[nodiscard]] inline gesmc::RunObserver* timed_observer(const Prepared& run,
                                                        FinalGraphCapture& capture) {
    return run.writes_files() ? nullptr : &capture;
}

/// The traced run's observer: also records each finished replicate's
/// seconds (each callback writes only its replicate's slot) and counts
/// checkpoints.
class TracingObserver final : public FinalGraphCapture {
public:
    explicit TracingObserver(const Prepared& run)
        : FinalGraphCapture(run), replicate_seconds_(run.config.replicates) {}

    void on_checkpoint(std::uint64_t replicate, const gesmc::ChainState& state,
                       const std::string& path) override;
    void on_replicate_done(const gesmc::ReplicateReport& report) override;

    /// Valid once run_pipeline returned.
    [[nodiscard]] const std::vector<double>& replicate_seconds() const noexcept {
        return replicate_seconds_;
    }
    [[nodiscard]] std::uint64_t checkpoints() const noexcept { return checkpoints_.load(); }

private:
    std::vector<double> replicate_seconds_;
    std::atomic<std::uint64_t> checkpoints_{0};
};

/// One run_pipeline call, timed from the caller's side.
struct PipelineCall {
    gesmc::RunReport report;
    double wall_s = 0;
};

[[nodiscard]] PipelineCall call_pipeline(const gesmc::PipelineConfig& config,
                                         gesmc::RunObserver* observer);

/// The workload's exact twin, run on `initial` on one thread for the run's
/// supersteps.
struct TwinRun {
    std::vector<gesmc::edge_key_t> keys; ///< final keys, slot order
    double seconds = 0;                  ///< make_chain + run_supersteps
};

[[nodiscard]] TwinRun run_exact_twin(const Prepared& run, const gesmc::EdgeList& initial);

/// What the checks of one call found.
struct CheckedOutputs {
    std::vector<std::uint64_t> digests;         ///< per replicate, of the sorted keys
    std::vector<std::uint64_t> supersteps;      ///< per replicate, realized
    std::vector<gesmc::edge_key_t> first_keys;  ///< replicate 0, slot order (observer only)
    double attempted_switches = 0;              ///< summed over replicates
    std::uint64_t succeeded = 0;                ///< replicates that passed every check
    double mean_supersteps = 0;                 ///< realized supersteps per replicate
};

/// Checks every configured replicate of `call`: listed in the report, no
/// error, a simple graph with the input's degree sequence and, given a
/// `reference` call, the same graph and realized supersteps as there.
/// Each replicate is one attempted operation and fails at most once.
[[nodiscard]] CheckedOutputs check_outputs(const Prepared& run, const PipelineCall& call,
                                           const FinalGraphCapture& capture,
                                           const std::vector<std::uint32_t>& input_degrees,
                                           const CheckedOutputs* reference, Tally& tally);

/// Host context printed before every result: nproc, threads used, host
/// fingerprint and the measured parallel ceiling at the budget.
[[nodiscard]] std::string context_line(const Prepared& run, double parallel_ceiling);

struct RunResult {
    Tally tally;
    std::vector<Metric> metrics;
};

/// Tracing off: the end-to-end metrics of BENCHMARK.json.
[[nodiscard]] RunResult run_end_to_end(const Prepared& run, const RunArgs& args);

/// Tracing on: the per-layer metrics of BENCHMARK.json.
[[nodiscard]] RunResult run_layers(const Prepared& run, const RunArgs& args);

/// Checks the benchmark's own arithmetic and output checks on tiny inputs;
/// prints each failure to stderr and returns the number of failures.
int self_test();

} // namespace perfbench
