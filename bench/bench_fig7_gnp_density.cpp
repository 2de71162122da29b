/// \file bench_fig7_gnp_density.cpp
/// \brief Figure 7: ParGlobalES runtime on SynGnp vs average degree.
///
/// Paper setup: m in {2^18..2^28}, average degree swept by varying n, P in
/// {32, 64}.  Ours: m in {2^16, 2^18}, P = hardware concurrency.  Expected
/// shape: at fixed m the runtime is essentially flat in the average degree
/// (G(n,p) is near-regular, so Theorem 2 bounds the rounds by a constant —
/// density does not matter).  small_graph_cutoff = 0 pins Algorithm 3's
/// superstep at every m (a one-thread host still runs the base case, whose
/// rounds read 0).
#include "bench_util/harness.hpp"
#include "gen/gnp.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 7 — ParGlobalES on SynGnp vs average degree",
                       "paper §6.2.2, Fig. 7");
    Timer total;
    constexpr std::uint64_t kSupersteps = 10;
    const unsigned pmax = bench_max_threads();

    TextTable table({"m", "n", "avg deg", "p", "runtime", "runtime/edge (ns)",
                     "mean rounds"});

    for (const std::uint64_t m : {std::uint64_t{1} << 16, std::uint64_t{1} << 18}) {
        for (const std::uint64_t avg_deg : {8ULL, 32ULL, 128ULL, 512ULL}) {
            const auto n = static_cast<node_t>(std::max<std::uint64_t>(2 * m / avg_deg, 64));
            const double p = gnp_probability_for_edges(n, m);
            ThreadPool pool(pmax);
            const EdgeList graph = generate_gnp(n, p, 31337 + avg_deg, pool);
            if (graph.num_edges() < 2) continue;

            ChainConfig config;
            config.seed = 11;
            config.threads = pmax;
            config.small_graph_cutoff = 0;
            const auto r = time_chain(ChainAlgorithm::kParGlobalES, graph, config, kSupersteps);
            const double per_edge_ns =
                r.seconds / static_cast<double>(kSupersteps * graph.num_edges()) * 1e9;
            const double mean_rounds = static_cast<double>(r.stats.rounds_total) /
                                       static_cast<double>(r.stats.supersteps);
            table.add_row({fmt_si(double(m)), fmt_si(double(n)),
                           fmt_double(2.0 * double(graph.num_edges()) / double(n), 1),
                           fmt_double(p, 6), fmt_seconds(r.seconds),
                           fmt_double(per_edge_ns, 2), fmt_double(mean_rounds, 2)});
        }
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig7");
    std::cout << "\nShape check (paper): runtime at fixed m is ~flat across average\n"
                 "degree; rounds stay constant (Theorem 2 for near-regular graphs).\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
