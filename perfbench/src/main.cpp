/// perfbench — the repository benchmark (see perfbench/README.md).
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --work-dir <dir>      (scratch files; the caller removes it)
///   perfbench --self-test
///
/// Prints one host-context line, then the result line the benchmark
/// contract asks for.  Exits 1 when a check failed (the result line then
/// says "correct": false) and 2 on a usage or run error (no result line).
#include "bench.hpp"

#include "bench_util/harness.hpp"

#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

namespace {

using perfbench::RunArgs;

std::string value_of(int argc, char** argv, int& i) {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
}

RunArgs parse_args(int argc, char** argv) {
    RunArgs args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workload") {
            args.workload = value_of(argc, argv, i);
        } else if (flag == "--seed") {
            const std::string v = value_of(argc, argv, i);
            if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
                throw std::invalid_argument("--seed must be a non-negative integer");
            }
            args.seed = std::stoull(v);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value_of(argc, argv, i));
            if (!(args.seconds > 0 && args.seconds <= 600)) {
                throw std::invalid_argument("--seconds must be in (0, 600]");
            }
            have_seconds = true;
        } else if (flag == "--trace") {
            const std::string v = value_of(argc, argv, i);
            if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
            args.trace = v == "1";
            have_trace = true;
        } else if (flag == "--work-dir") {
            args.work_dir = value_of(argc, argv, i);
        } else {
            throw std::invalid_argument("unknown argument: " + flag);
        }
    }
    if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
        args.work_dir.empty()) {
        throw std::invalid_argument(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
            "--work-dir <dir> | --self-test");
    }
    return args;
}

} // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::string(argv[1]) == "--self-test") {
        const int failures = perfbench::self_test();
        std::cout << "perfbench self-test: " << (failures == 0 ? "ok" : "FAILED") << "\n";
        return failures == 0 ? 0 : 1;
    }
    try {
        RunArgs args = parse_args(argc, argv);
        const perfbench::Workload* workload = perfbench::find_workload(args.workload);
        if (workload == nullptr) throw std::invalid_argument("unknown workload: " + args.workload);

        // Run inside the work dir on relative paths.  The pipeline's path
        // strings, and with them how glibc lays out its heaps, are then the
        // same wherever the checkout sits: peak_rss_mb on pld-batch moved
        // by 25% with the length of the work dir's absolute path.
        std::filesystem::create_directories(args.work_dir);
        std::filesystem::current_path(args.work_dir);
        args.work_dir = ".";

        const perfbench::Prepared run = perfbench::prepare(*workload, args);
        perfbench::RunResult result =
            args.trace ? run_layers(run, args) : run_end_to_end(run, args);

        // Host context goes with every result, so that numbers from hosts
        // that deliver different parallelism are never compared blind.
        const double ceiling = gesmc::measure_parallel_ceiling(perfbench::budget_threads());
        if (args.trace) {
            result.metrics.push_back({"parallel.ceiling", ceiling, "x"});
            result.metrics.push_back({"failed_frac", result.tally.failed_frac(), "ratio"});
        }
        for (const perfbench::Metric& m : result.metrics) {
            if (!std::isfinite(m.value)) {
                std::cerr << "perfbench: CHECK FAILED: " << m.name << " is not a finite number\n";
            }
        }
        std::cout << perfbench::context_line(run, ceiling) << "\n"
                  << perfbench::result_line(result.tally, result.metrics) << std::endl;
        return result.tally.failed() == 0 && perfbench::all_finite(result.metrics) ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 2;
    }
}
