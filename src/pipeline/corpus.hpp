/// \file corpus.hpp
/// \brief Corpus runs: one config, many input graphs.
///
/// The paper's experimental methodology (and Milo et al.'s null-model
/// practice) evaluates switching chains over *families* of graphs, not
/// single inputs.  This layer lifts the pipeline accordingly: a corpus
/// config names many inputs — an explicit `input = a.gesb b.gesb` list, an
/// `input-glob = data/*.gesb` pattern, a `corpus-manifest = corpus.txt`
/// file, or a synthetic `corpus = powerlaw n=... count=...` spec backed by
/// src/gen/corpus — and one run:
///
///   1. expands the config into per-graph *shards*: single-graph
///      PipelineConfigs with namespaced output directories
///      (<output-dir>/<graph-name>/) and per-graph master seeds derived by
///      corpus_graph_seed(master, graph_index), so each shard is exactly
///      the single-graph run a user could have written by hand;
///   2. schedules all (graph x replicate) cells over ONE ThreadBudget via
///      SharedExecutor: replicates of different graphs interleave
///      round-robin under the lease model instead of graphs running
///      serially, so a small graph is never starved behind a huge one and
///      the budget never idles at a graph boundary;
///   3. merges the per-graph RunReports into a corpus summary — per-graph
///      rows plus min/median/max aggregates of timings, switch acceptance
///      and proxy metrics (write_corpus_json; schema in docs/corpus.md).
///
/// Determinism composes: a shard's outputs are byte-identical to the
/// equivalent standalone run with the derived seed (the corpus adds no
/// randomness of its own), and checkpoint/resume composes per cell — an
/// interrupted corpus run resumed via `resume-from = <previous output-dir>`
/// re-runs only its unfinished (graph, replicate) cells, byte-identically.
#pragma once

#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace gesmc {

class SharedExecutor;

/// One member of an expanded corpus.
struct CorpusInput {
    std::string name; ///< unique id; becomes the shard's output subdirectory
    std::string path; ///< input file on disk (edge list, or degree file)
};

/// A corpus config expanded into its member graphs.  `graphs` order is the
/// seed-index order: explicit inputs as listed, glob matches sorted,
/// manifest entries in file order, synthetic members by count index — all
/// deterministic, so the same config always yields the same (graph, seed)
/// pairs.
struct CorpusPlan {
    PipelineConfig base;             ///< the validated corpus-level config
    std::vector<CorpusInput> graphs; ///< expansion in seed-index order
};

/// Parses corpus-manifest text from a stream: one input per line, blank
/// lines and '#'/'%' comments skipped, optional "path :: name" renaming,
/// relative paths resolved against `base_dir` (may be empty).
/// `manifest_path` is used in error messages only.  Throws Error on an
/// empty manifest or malformed line.  Split out of plan_corpus so the
/// parser is drivable from memory (fuzz/fuzz_config.cpp).
[[nodiscard]] std::vector<CorpusInput>
parse_corpus_manifest(std::istream& is, const std::string& manifest_path,
                      const std::string& base_dir);

/// Expands a corpus config: resolves the input source (splitting an
/// explicit list, matching a glob, reading a manifest, or materializing a
/// synthetic corpus under <output-dir>/corpus-inputs/), derives unique
/// graph names, and validates the result — duplicate graph names are
/// rejected naming both offending paths (two inputs called g.gesb in
/// different directories must not silently share one output directory).
/// Throws Error on a non-corpus config or any expansion problem.
[[nodiscard]] CorpusPlan plan_corpus(const PipelineConfig& config);

/// The single-graph config of corpus member `index`: base with the member's
/// input path, seed = corpus_graph_seed(base.seed, index), output-dir and
/// report namespaced under <output-dir>/<name>/, and — when base names a
/// resume-from directory — resume-from pointed at the member's previous
/// shard directory iff it holds resumable state (a member the interrupted
/// run never started begins fresh).  This is the ground truth the
/// determinism contract is stated against: running this config standalone
/// reproduces the corpus member byte for byte.
[[nodiscard]] PipelineConfig corpus_shard(const CorpusPlan& plan, std::size_t index);

/// Per-graph row of the merged corpus summary.
struct CorpusGraphRow {
    std::string name;
    std::string input_path;
    std::uint64_t seed = 0;  ///< derived per-graph master seed
    std::uint64_t input_nodes = 0;
    std::uint64_t input_edges = 0;
    std::uint64_t replicates = 0;
    std::uint64_t failed = 0;      ///< replicates with a genuine error
    std::uint64_t interrupted = 0; ///< replicates stopped at an interrupt boundary
    double seconds = 0;            ///< the shard's wall clock
    double switches_per_second = 0;
    double acceptance_rate = 0; ///< accepted / attempted over all replicates
    bool has_metrics = false;   ///< means below are populated
    double mean_triangles = 0;
    double mean_clustering = 0;
    double mean_assortativity = 0;
    double mean_components = 0;
    /// Adaptive-budget runs (docs/adaptive.md): realized vs configured
    /// superstep budget, and whether the coordinator's two-phase early-stop
    /// skipped the graph's remaining replicates once the first wave's
    /// z-scores stabilized.  Emitted only when has_adaptive.
    bool has_adaptive = false;
    bool stopped_early = false;
    std::uint64_t configured_supersteps = 0;  ///< the adaptive cap (max-supersteps)
    double mean_realized_supersteps = 0;      ///< over the replicates that ran
    std::string error; ///< first genuine error ("" = none)
};

/// Everything the corpus summary records.
struct CorpusReport {
    PipelineConfig config;          ///< the corpus-level config
    std::vector<CorpusGraphRow> rows; ///< one per graph, in plan order
    double total_seconds = 0;       ///< whole corpus wall clock
};

/// Collapses one shard's RunReport into its summary row.  Also the merge
/// path of the service client: gesmc_submit --corpus rebuilds rows from the
/// shard reports the daemon wrote (service/corpus_client.hpp).
[[nodiscard]] CorpusGraphRow corpus_row_from_report(const CorpusInput& input,
                                                    const RunReport& report);

/// True iff every replicate of every graph finished without error.
[[nodiscard]] bool all_succeeded(const CorpusReport& report);
/// True iff any replicate was stopped by the interrupt flag (drain/signal).
[[nodiscard]] bool was_interrupted(const CorpusReport& report);

/// Streaming callbacks for corpus progress.  Both may fire concurrently
/// from executor/runner threads (different graphs complete in parallel);
/// `graph` is the plan index of the member the event belongs to.
struct CorpusHooks {
    std::function<void(std::size_t graph, const ReplicateReport&)> on_replicate_done;
    std::function<void(std::size_t graph, const RunReport&)> on_graph_done;
    /// Called once before any shard starts with the executor every cell
    /// runs on (valid until run_corpus returns): a live view of the
    /// corpus's load through SharedExecutor::stats().
    std::function<void(const SharedExecutor&)> on_start;
};

/// Runs the whole corpus over one thread budget (base.threads).  Every
/// graph's shard runs through run_pipeline with a SharedExecutor injected,
/// so the (graph x replicate) cells of all members interleave round-robin
/// within the budget while each shard keeps its own resolved (K, T)
/// schedule.  `log` (may be null) receives corpus-level progress lines;
/// `interrupt` stops unstarted cells and checkpoints running ones exactly
/// as in a single run.  Writes the merged summary to base.report (if set)
/// and returns it.
CorpusReport run_corpus(const CorpusPlan& plan, std::ostream* log = nullptr,
                        const std::atomic<bool>* interrupt = nullptr,
                        const CorpusHooks& hooks = {});

/// Serializes the merged corpus summary (schema in docs/corpus.md).
void write_corpus_json(std::ostream& os, const CorpusReport& report);
void write_corpus_json_file(const std::string& path, const CorpusReport& report);

/// One row as a single compact JSON line (no newline) — the NDJSON spelling
/// run_corpus streams to <output-dir>/corpus_rows.ndjson as each graph
/// finishes, so a long corpus run is monitorable before the summary exists.
/// Same fields as the summary's per-graph objects.
[[nodiscard]] std::string corpus_row_ndjson(const CorpusGraphRow& row);

} // namespace gesmc
