/// \file bench_fig6_strong_scaling.cpp
/// \brief Figure 6: strong scaling (self speed-up) of ParGlobalES.
///
/// Paper setup: 1 <= P <= 64 on the NetRep sample; max speed-up 20-30 for
/// large graphs, poor scaling for the smallest ones.  Ours: P in
/// {1, 2, ..., 2*hardware} (oversubscription included to show the
/// saturation point) on a size ladder from the corpus.  Expected shape:
/// speed-up grows with P up to the physical core count and improves with
/// graph size.  The chains run with the default small_graph_cutoff, so the
/// P = 1 column is the sequential base case (one-thread chains never build
/// the superstep), and graphs below the cutoff take the base case at every
/// P: the speed-up is against the fastest one-thread path.
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 6 — strong scaling of ParGlobalES", "paper §6.2.2, Fig. 6");
    Timer total;
    constexpr std::uint64_t kSupersteps = 10;
    const unsigned pmax = bench_max_threads();

    std::vector<unsigned> threads{1};
    for (unsigned p = 2; p <= 2 * pmax; p *= 2) threads.push_back(p);

    std::vector<std::string> header{"graph", "m"};
    for (const unsigned p : threads) header.push_back("P=" + std::to_string(p));
    header.emplace_back("best speed-up");
    TextTable table(header);

    auto corpus = corpus_bench();
    std::sort(corpus.begin(), corpus.end(), [](const auto& a, const auto& b) {
        return a.graph.num_edges() < b.graph.num_edges();
    });

    for (std::size_t idx = 0; idx < corpus.size(); idx += 3) { // size ladder sample
        const auto& entry = corpus[idx];
        std::vector<std::string> row{entry.name, fmt_si(double(entry.graph.num_edges()))};
        double t1 = 0, best = 0;
        for (const unsigned p : threads) {
            ChainConfig config;
            config.seed = 7;
            config.threads = p;
            const double secs =
                time_chain(ChainAlgorithm::kParGlobalES, entry.graph, config, kSupersteps)
                    .seconds;
            if (p == 1) t1 = secs;
            best = std::max(best, t1 / secs);
            row.push_back(fmt_seconds(secs));
        }
        row.push_back(fmt_double(best, 2));
        table.add_row(std::move(row));
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig6");
    const double ceiling = measure_parallel_ceiling(pmax);
    std::cout << "\nSelf speed-up = time(P=1) / time(P); the paper reaches 20-30x at\n"
                 "P=32-64 on 64 dedicated cores. Measured compute-kernel ceiling of\n"
                 "this environment at P=" << pmax << ": " << fmt_double(ceiling, 2)
              << "x — chain speed-ups are bounded by it (no chain scales past the machine).\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
