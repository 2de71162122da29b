/// \file bench_fig8_powerlaw_skew.cpp
/// \brief Figure 8: ParGlobalES runtime per edge on SynPld vs the degree
/// exponent gamma.
///
/// Paper setup: n in {2^24, 2^26, 2^28}, gamma from 2.01 to 3, P in
/// {32, 64}; runtime normalized per edge.  Ours: n in {2^15, 2^16},
/// P = hardware concurrency.  Expected shape: runtime per edge increases
/// as gamma approaches 2 (skewed degrees concentrate target dependencies,
/// Theorem 3) and flattens for larger gamma; mean rounds mirror that.
/// small_graph_cutoff = 0 pins Algorithm 3's superstep at every m (a
/// one-thread host still runs the base case, whose rounds read 0).
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "graph/degree_sequence.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 8 — ParGlobalES runtime per edge on SynPld vs gamma",
                       "paper §6.2.2, Fig. 8");
    Timer total;
    constexpr std::uint64_t kSupersteps = 10;
    const unsigned pmax = bench_max_threads();

    TextTable table({"n", "gamma", "m", "dmax", "runtime", "runtime/edge (ns)",
                     "mean rounds", "P2*m"});

    for (const std::uint64_t n : {std::uint64_t{1} << 15, std::uint64_t{1} << 16}) {
        for (const double gamma : {2.01, 2.1, 2.3, 2.5, 2.8, 3.0}) {
            const EdgeList graph = generate_powerlaw_graph(
                static_cast<node_t>(n), gamma, 60000 + static_cast<std::uint64_t>(gamma * 100));
            const DegreeSequence seq = degree_sequence_of(graph);

            ChainConfig config;
            config.seed = 13;
            config.threads = pmax;
            config.small_graph_cutoff = 0;
            const auto r = time_chain(ChainAlgorithm::kParGlobalES, graph, config, kSupersteps);
            const double per_edge_ns =
                r.seconds / static_cast<double>(kSupersteps * graph.num_edges()) * 1e9;
            const double mean_rounds = static_cast<double>(r.stats.rounds_total) /
                                       static_cast<double>(r.stats.supersteps);
            table.add_row({fmt_si(double(n)), fmt_double(gamma, 2),
                           fmt_si(double(graph.num_edges())),
                           fmt_si(double(seq.max_degree())), fmt_seconds(r.seconds),
                           fmt_double(per_edge_ns, 2), fmt_double(mean_rounds, 2),
                           fmt_double(seq.p2() * double(graph.num_edges()), 4)});
        }
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig8");
    std::cout << "\nShape check (paper): runtime/edge and rounds rise as gamma -> 2\n"
                 "(more target dependencies, Theorem 3 — P2*m is the predictor).\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
