#include "bench.hpp"

#include "bench_util/harness.hpp"
#include "gen/powerlaw.hpp"
#include "graph/io.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/seeds.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

#include <sched.h>

#include <algorithm>
#include <sstream>

namespace perfbench {

using namespace gesmc;

namespace {

std::vector<Workload> make_table() {
    std::vector<Workload> table;

    // ParGlobalES on one big near-uniform graph: the superstep and the
    // concurrent tables do nearly all the work.  Its final graph must
    // equal SeqGlobalES's (the paper's sequential baseline) byte for byte.
    Workload par;
    par.name = "gnp-2m-par";
    par.config.input_kind = InputKind::kGenerator;
    par.config.generator = "gnp";
    par.config.gen_n = 200'000;
    par.config.gen_m = 2'000'000;
    par.config.algorithm = "par-global-es";
    par.config.replicates = 1;
    par.config.policy = SchedulePolicy::kIntraChain;
    par.config.supersteps = 2;
    par.config.metrics = false;
    par.exact_twin = "seq-global-es";
    table.push_back(par);

    // Many small skewed replicates with text outputs, metrics and
    // checkpoints: the scheduler, replicate lifecycle and graph IO.
    Workload batch;
    batch.name = "pld-batch";
    batch.config.input_kind = InputKind::kDegreeSequence;
    batch.config.replicates = 16;
    batch.config.supersteps = 20;
    batch.config.policy = SchedulePolicy::kReplicates;
    batch.config.output_format = OutputFormat::kText;
    batch.config.checkpoint_every = 5;
    batch.config.output_dir = "out";
    batch.shape_n = 20'000;
    batch.shape_gamma = 2.2;
    table.push_back(batch);

    // Heavily skewed graph under adaptive budgets: the ESS / G2-BIC
    // estimator is on the critical path, hubs stress the insert lists.
    Workload adaptive;
    adaptive.name = "pld-adaptive";
    adaptive.config.input_kind = InputKind::kDegreeSequence;
    adaptive.config.replicates = 4;
    adaptive.config.adaptive = true;
    adaptive.config.policy = SchedulePolicy::kReplicates;
    adaptive.config.output_format = OutputFormat::kBinary;
    adaptive.config.metrics = false;
    adaptive.config.output_dir = "out";
    adaptive.shape_n = 50'000;
    adaptive.shape_gamma = 2.1;
    table.push_back(adaptive);
    return table;
}

} // namespace

const Workload* find_workload(const std::string& name) {
    static const std::vector<Workload> table = make_table();
    for (const Workload& w : table) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

unsigned nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    }
    return hardware_threads();
}

unsigned budget_threads() { return std::min(4u, nproc()); }

Prepared prepare(const Workload& workload, const RunArgs& args) {
    Prepared run;
    run.workload = &workload;
    run.config = workload.config;
    run.config.seed = args.seed;
    if (run.config.threads == 0) run.config.threads = budget_threads();
    run.threads = run.config.threads;
    // The two policies the workloads use; auto and hybrid resolve T from
    // the replicate count, which the benchmark would have to mirror.
    GESMC_CHECK(run.config.policy == SchedulePolicy::kIntraChain ||
                    run.config.policy == SchedulePolicy::kReplicates,
                "perfbench workloads use the intra-chain or replicates policy");
    run.chain_threads = run.config.policy == SchedulePolicy::kIntraChain ? run.threads : 1;
    run.algorithm = chain_algorithm_from_string(run.config.algorithm);
    GESMC_CHECK(run.writes_files() || !run.config.adaptive,
                "a perfbench workload without output files has a fixed budget, "
                "at whose end its graphs are captured");
    if (run.writes_files()) run.config.output_dir = args.work_dir + "/" + run.config.output_dir;
    if (workload.shape_n > 0) {
        run.config.input_path = args.work_dir + "/" + workload.name + ".degrees";
        write_degree_sequence_file(
            run.config.input_path,
            sample_powerlaw_degrees(workload.shape_n, workload.shape_gamma, kShapeSeed));
    }
    return run;
}

ChainConfig chain_config(const PipelineConfig& config, unsigned threads, std::uint64_t index) {
    ChainConfig c;
    c.seed = replicate_seed(config.seed, index);
    c.threads = threads;
    c.pl = config.pl;
    c.prefetch = config.prefetch;
    c.small_graph_cutoff = config.small_graph_cutoff;
    c.edge_set_backend = config.edge_set_backend;
    return c;
}

FinalGraphCapture::FinalGraphCapture(const Prepared& run)
    : final_superstep_(run.config.supersteps),
      keys_(run.writes_files() ? 0 : run.config.replicates) {}

void FinalGraphCapture::on_superstep(std::uint64_t replicate, const Chain& chain) {
    if (!keys_.empty() && chain.stats().supersteps == final_superstep_) {
        keys_[replicate] = chain.graph().keys();
    }
}

void TracingObserver::on_checkpoint(std::uint64_t, const ChainState&, const std::string&) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
}

void TracingObserver::on_replicate_done(const ReplicateReport& report) {
    replicate_seconds_.at(report.index) = report.seconds;
}

PipelineCall call_pipeline(const PipelineConfig& config, RunObserver* observer) {
    PipelineCall call;
    Timer timer;
    call.report = run_pipeline(config, nullptr, observer);
    call.wall_s = timer.elapsed_s();
    return call;
}

TwinRun run_exact_twin(const Prepared& run, const EdgeList& initial) {
    const ChainAlgorithm twin = chain_algorithm_from_string(run.workload->exact_twin);
    TwinRun out;
    const Timer timer;
    const auto chain = make_chain(twin, initial, chain_config(run.config, 1, 0));
    chain->run_supersteps(run.config.supersteps);
    out.seconds = timer.elapsed_s();
    out.keys = chain->graph().keys();
    return out;
}

CheckedOutputs check_outputs(const Prepared& run, const PipelineCall& call,
                             const FinalGraphCapture& capture,
                             const std::vector<std::uint32_t>& input_degrees,
                             const CheckedOutputs* reference, Tally& tally) {
    CheckedOutputs out;
    const std::uint64_t replicates = run.config.replicates;
    tally.attempt(replicates);
    std::uint64_t supersteps = 0;
    for (std::uint64_t r = 0; r < replicates; ++r) {
        const std::string where = run.workload->name + " replicate " + std::to_string(r);
        out.digests.push_back(0);
        out.supersteps.push_back(0);
        if (!tally.check(r < call.report.replicates.size(), where + " is listed in the report")) {
            continue;
        }
        const ReplicateReport& rep = call.report.replicates[r];
        out.attempted_switches += static_cast<double>(rep.stats.attempted);
        out.supersteps.back() = rep.stats.supersteps;
        supersteps += rep.stats.supersteps;
        if (!tally.check(rep.error.empty(), where + " reported: " + rep.error)) continue;
        EdgeList graph;
        try {
            graph = run.writes_files()
                        ? read_any_edge_list_file(rep.output_path)
                        : EdgeList::from_keys(static_cast<node_t>(input_degrees.size()),
                                              capture.keys(r));
        } catch (const std::exception& e) {
            tally.check(false, where + " output unreadable: " + e.what());
            continue;
        }
        // The file reader collapses duplicates and drops loops, so a
        // non-simple output shows as a changed degree sequence.
        if (!tally.check(graph.is_simple() && graph.degrees() == input_degrees,
                         where + " is a simple graph with the input's degree sequence")) {
            continue;
        }
        out.digests.back() = digest(graph.sorted_keys());
        if (reference != nullptr &&
            !tally.check(out.digests.back() == reference->digests.at(r) &&
                             out.supersteps.back() == reference->supersteps.at(r),
                         where + " reproduces the first call's graph and supersteps")) {
            continue;
        }
        if (r == 0 && !run.writes_files()) {
            out.first_keys = graph.keys();
        }
        ++out.succeeded;
    }
    out.mean_supersteps =
        ratio(static_cast<double>(supersteps), static_cast<double>(replicates));
    return out;
}

std::string context_line(const Prepared& run, double parallel_ceiling) {
    const BenchHost host = bench_host_info();
    std::ostringstream os;
    os << R"({"context": {"workload": )";
    write_json_escaped(os, run.workload->name);
    os << R"(, "nproc": )" << nproc() << R"(, "threads": )" << run.threads
       << R"(, "chain_threads": )" << run.chain_threads << R"(, "fingerprint": )";
    write_json_escaped(os, host.fingerprint);
    os << R"(, "parallel_ceiling": )" << parallel_ceiling << "}}";
    return os.str();
}

} // namespace perfbench
