/// `perfbench --self-test`: the benchmark's own arithmetic and output
/// checks on tiny inputs.  The steadiness arithmetic is tested beside its
/// command, in steady.py.
#include "bench.hpp"

#include "pipeline/pipeline.hpp"

#include <cmath>
#include <iostream>

namespace perfbench {

using namespace gesmc;

int self_test() {
    int failures = 0;
    const auto expect = [&failures](bool ok, const char* what) {
        if (!ok) {
            ++failures;
            std::cerr << "perfbench self-test FAILED: " << what << "\n";
        }
    };
    const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

    // Percentiles: interpolated ranks of an unsorted input.
    const std::vector<double> v{4, 1, 3, 2, 5};
    expect(near(median(v), 3), "median of 1..5 is 3");
    expect(near(percentile(v, 0.0), 1) && near(percentile(v, 1.0), 5), "percentile ends");
    expect(near(percentile(v, 0.9), 4.6), "p90 of 1..5 interpolates to 4.6");
    expect(near(median({1, 2, 3, 4}), 2.5), "even-length median interpolates");
    expect(percentile({}, 0.5) == 0 && near(percentile({7}, 0.9), 7), "empty and single");

    // Digests: order-sensitive, content-sensitive, stable across calls.
    const std::vector<edge_key_t> a{1, 2, 3}, b{3, 2, 1}, c{1, 2, 4};
    expect(digest(a) == digest(std::vector<edge_key_t>{1, 2, 3}), "digest is stable");
    expect(digest(a) != digest(b), "digest sees slot order");
    expect(digest(a) != digest(c), "digest sees content");
    expect(digest({}) == 0xcbf29ce484222325ULL, "digest of nothing is the FNV basis");

    // Failure counting: failures count against attempts, never vanish.
    Tally tally;
    tally.attempt(4);
    tally.check(true, "ok");
    std::cerr << "perfbench self-test: a deliberate check failure follows\n";
    tally.check(false, "deliberate");
    expect(tally.attempted() == 4 && tally.failed() == 1, "tally counts");
    expect(near(tally.failed_frac(), 0.25), "failed_frac = failed / attempted");
    expect(Tally{}.failed_frac() == 0, "no attempts means no failure fraction");
    expect(result_line(tally, {}).rfind(R"({"correct": false, "attempted": 4, "failed": 1)", 0) ==
               0,
           "a failed check makes the run report failure");

    // The output checks on a tiny pipeline run: clean outputs pass, and a
    // replicate whose graph has another degree sequence counts as failed.
    Workload tiny;
    tiny.name = "self-test";
    tiny.config.input_kind = InputKind::kGenerator;
    tiny.config.generator = "gnp";
    tiny.config.gen_n = 200;
    tiny.config.gen_m = 600;
    tiny.config.replicates = 2;
    tiny.config.supersteps = 2;
    tiny.config.threads = 1;
    tiny.config.metrics = false;
    Prepared run;
    run.workload = &tiny;
    run.config = tiny.config;
    FinalGraphCapture capture(run);
    const PipelineCall call = call_pipeline(run.config, &capture);
    const std::vector<std::uint32_t> degrees = materialize_input(run.config).degrees();
    Tally clean_outputs;
    const CheckedOutputs ok = check_outputs(run, call, capture, degrees, nullptr, clean_outputs);
    expect(clean_outputs.attempted() == 2 && clean_outputs.failed() == 0 && ok.succeeded == 2,
           "clean tiny outputs pass");
    expect(ok.digests.size() == 2 && ok.digests[0] != ok.digests[1],
           "replicates get distinct graphs");
    Tally same_again;
    (void)check_outputs(run, call, capture, degrees, &ok, same_again);
    expect(same_again.attempted() == 2 && same_again.failed() == 0,
           "a call reproduces itself");

    // A call that does not reproduce the reference fails each differing
    // replicate once; a replicate missing from the report fails once.
    std::cerr << "perfbench self-test: deliberate check failures follow\n";
    CheckedOutputs other_reference = ok;
    other_reference.digests[0] ^= 1;
    other_reference.supersteps[1] += 1;
    Tally not_reproduced;
    (void)check_outputs(run, call, capture, degrees, &other_reference, not_reproduced);
    expect(not_reproduced.attempted() == 2 && not_reproduced.failed() == 2,
           "each replicate that differs from the reference fails once");
    PipelineCall short_call = call;
    short_call.report.replicates.pop_back();
    Tally short_report;
    const CheckedOutputs missing =
        check_outputs(run, short_call, capture, degrees, &ok, short_report);
    expect(short_report.attempted() == 2 && short_report.failed() == 1 && missing.succeeded == 1,
           "a replicate missing from the report is one failed operation");
    PipelineConfig other = run.config;
    other.seed += 1; // another G(n, p) draw: another degree sequence
    const auto wrong = make_chain(ChainAlgorithm::kSeqGlobalES, materialize_input(other),
                                  chain_config(other, 1, 0));
    wrong->run_supersteps(2);
    capture.on_superstep(1, *wrong);
    Tally broken_outputs;
    const CheckedOutputs bad = check_outputs(run, call, capture, degrees, nullptr, broken_outputs);
    expect(broken_outputs.attempted() == 2 && broken_outputs.failed() == 1 &&
               bad.succeeded == 1,
           "a wrong output counts as exactly one failed operation");

    // RSS capture: touching 64 MiB must raise the peak by about that much.
    const double before = peak_rss_mb();
    {
        std::vector<char> block(64u << 20);
        for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
        volatile char sink = block[block.size() / 2];
        (void)sink;
    }
    const double after = peak_rss_mb();
    expect(after - before > 48 && after - before < 96, "peak RSS sees a 64 MiB block");

    // Result line: exact keys, all digits, finite numbers only; a metric
    // that is not a number makes the run report failure.
    Tally clean;
    clean.attempt();
    expect(result_line(clean, {{"wall_s", 1.0 / 3.0, "s"}}) ==
               R"({"correct": true, "attempted": 1, "failed": 0, "metrics": {)"
               R"("wall_s": {"value": 0.33333333333333331, "unit": "s"}}})",
           "result line format");
    expect(result_line(clean, {{"wall_s", 1.0, "s"}, {"bad", std::nan(""), "s"}}) ==
               R"({"correct": false, "attempted": 1, "failed": 0, "metrics": {)"
               R"("wall_s": {"value": 1, "unit": "s"}, "bad": {"value": 0, "unit": "s"}}})",
           "a metric that is not finite prints as 0 and fails the run");
    return failures;
}

} // namespace perfbench
