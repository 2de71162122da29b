#include "bench.hpp"

#include "pipeline/pipeline.hpp"
#include "util/timer.hpp"

#include <iostream>

namespace perfbench {

using namespace gesmc;

namespace {

/// Set-up is timed once after every call, so that its samples spread over
/// the whole run like the calls' do (the host's speed drifts over tens of
/// seconds), and at least this many times: on the small inputs one set-up
/// takes milliseconds, and a few samples would read noisy.
constexpr std::size_t kMinSetups = 5;

/// Every run times at least this many calls, so that its medians never
/// rest on one or two calls, even where a call takes more than a third of
/// --seconds (pld-adaptive).
constexpr std::size_t kMinCalls = 3;

/// Seconds of one materialize_input + make_chain for replicate 0's chain;
/// also returns the input's degree sequence (untimed) on the first call.
double time_setup(const Prepared& run, std::vector<std::uint32_t>& input_degrees) {
    const Timer timer;
    const EdgeList initial = materialize_input(run.config);
    const auto chain =
        make_chain(run.algorithm, initial, chain_config(run.config, run.chain_threads, 0));
    const double seconds = timer.elapsed_s();
    if (input_degrees.empty()) input_degrees = initial.degrees();
    return seconds;
}

} // namespace

RunResult run_end_to_end(const Prepared& run, const RunArgs& args) {
    RunResult result;
    Tally& tally = result.tally;

    // Whole run_pipeline calls, as a gesmc_sample user waits for them,
    // until the next call would overrun --seconds (at least kMinCalls).
    // The first call runs before anything else of size has been allocated,
    // as in a fresh gesmc_sample process, and peak RSS is read right after
    // it: later calls and set-up run on a heap that earlier calls shaped.
    const Timer measuring;
    FinalGraphCapture first_capture(run);
    const PipelineCall first_call = call_pipeline(run.config, timed_observer(run, first_capture));
    const double rss_mb = peak_rss_mb();

    std::vector<std::uint32_t> input_degrees;
    std::vector<double> setups{time_setup(run, input_degrees)};

    std::vector<double> walls, switch_rates, sample_rates;
    const CheckedOutputs first =
        check_outputs(run, first_call, first_capture, input_degrees, nullptr, tally);
    const auto record = [&](const PipelineCall& call, const CheckedOutputs& out) {
        walls.push_back(call.wall_s);
        std::cerr << "perfbench: " << run.workload->name << " call " << walls.size()
                  << ": wall_s = " << call.wall_s << "\n";
        switch_rates.push_back(out.attempted_switches / call.wall_s);
        sample_rates.push_back(static_cast<double>(out.succeeded) / call.wall_s);
    };
    record(first_call, first);
    while (walls.size() < kMinCalls ||
           measuring.elapsed_s() + walls.back() + setups.back() <= args.seconds) {
        FinalGraphCapture capture(run);
        const PipelineCall call = call_pipeline(run.config, timed_observer(run, capture));
        record(call, check_outputs(run, call, capture, input_degrees, &first, tally));
        setups.push_back(time_setup(run, input_degrees));
    }
    while (setups.size() < kMinSetups) setups.push_back(time_setup(run, input_degrees));

    const Workload& workload = *run.workload;
    if (!workload.exact_twin.empty()) {
        tally.attempt();
        const TwinRun twin = run_exact_twin(run, materialize_input(run.config));
        tally.check(!first.first_keys.empty() && twin.keys == first.first_keys,
                    workload.name + " final edge keys equal " + workload.exact_twin +
                        "'s for the same input and seed");
    }

    result.metrics = {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"switches_per_s", median(switch_rates), "1/s"},
        {"samples_per_s", median(sample_rates), "1/s"},
        {"supersteps_to_mix", first.mean_supersteps, "count"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return result;
}

} // namespace perfbench
