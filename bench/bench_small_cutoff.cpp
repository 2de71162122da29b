/// \file bench_small_cutoff.cpp
/// \brief The crossover behind kDefaultSmallGraphCutoff: at which edge
/// count does the exact parallel superstep start to beat the sequential
/// base case on the same pool?
///
/// Paper §7 proposes dedicated base cases for small graphs.  For each m on
/// a doubling ladder (G(n, p) with average degree 8 up to m = 2^21, and
/// power-law graphs with gamma = 2.2 up to n = 2^16) and each P in {2, 4},
/// it times init + 10 supersteps of ParGlobalES twice: with
/// small_graph_cutoff = 0 (superstep) and with a cutoff above m (base
/// case).  ParES runs the same pairs up to m = 2^17 (its windows of
/// ~sqrt(m) switches keep it far from paying at this size).  Each cell is
/// the median of 3 interleaved runs; ratio = superstep / base case.  The
/// default cutoff is the power of two near which ParGlobalES's ratio at
/// P = 4 drops below 1.
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <iostream>
#include <limits>

using namespace gesmc;

namespace {

constexpr std::uint64_t kSupersteps = 10;
constexpr int kRepeats = 3;

/// Median seconds of {superstep, base case}, runs interleaved.
std::pair<double, double> time_both_paths(ChainAlgorithm algo, const EdgeList& graph,
                                          unsigned threads) {
    std::vector<double> superstep;
    std::vector<double> base;
    for (int rep = 0; rep < kRepeats; ++rep) {
        ChainConfig config;
        config.seed = 5 + static_cast<std::uint64_t>(rep);
        config.threads = threads;
        config.small_graph_cutoff = 0;
        superstep.push_back(time_chain(algo, graph, config, kSupersteps).seconds);
        config.small_graph_cutoff = std::numeric_limits<std::uint64_t>::max();
        base.push_back(time_chain(algo, graph, config, kSupersteps).seconds);
    }
    return {median_of(superstep), median_of(base)};
}

} // namespace

int main() {
    print_bench_header("Small-graph cutoff — superstep vs sequential base case",
                       "paper §7 (base cases for small graphs)");
    Timer total;
    TextTable table({"graph", "m", "algo", "P", "superstep", "base case", "ratio"});
    for (const bool powerlaw : {false, true}) {
        for (std::uint64_t target = 1u << 10; target <= (powerlaw ? 1u << 18 : 1u << 21);
             target *= 2) {
            const auto n = static_cast<node_t>(target / 4); // average degree ~8
            const EdgeList graph = powerlaw ? generate_powerlaw_graph(n, 2.2, target)
                                            : generate_gnp(n, gnp_probability_for_edges(n, target),
                                                           target);
            if (graph.num_edges() < 2) continue;
            for (const auto algo : {ChainAlgorithm::kParGlobalES, ChainAlgorithm::kParES}) {
                if (algo == ChainAlgorithm::kParES && graph.num_edges() > (1u << 17)) continue;
                for (const unsigned threads : {2u, 4u}) {
                    const auto [superstep, base] = time_both_paths(algo, graph, threads);
                    table.add_row({powerlaw ? "pl-2.2" : "gnp-d8",
                                   fmt_si(double(graph.num_edges())), to_string(algo),
                                   std::to_string(threads), fmt_seconds(superstep),
                                   fmt_seconds(base), fmt_double(superstep / base, 2)});
                }
            }
        }
    }
    table.print(std::cout);
    table.print_csv(std::cout, "small_cutoff");
    std::cout << "\nratio < 1: the superstep pays. Default cutoff: "
              << kDefaultSmallGraphCutoff << " edges.\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
