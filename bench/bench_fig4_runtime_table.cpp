/// \file bench_fig4_runtime_table.cpp
/// \brief Figure 4 (the paper's runtime table): absolute runtimes of all
/// implementations for 20 supersteps on a corpus sample.
///
/// Paper columns: NetworKit, Gengraph, SeqES, SeqGlobalES, NaiveParES,
/// ParGlobalES at P=1, plus NaiveParES/ParGlobalES at P=32, with a 1000 s
/// timeout.  Substitutions: AdjListES stands in for the NetworKit/Gengraph
/// class of adjacency-list implementations, which are external libraries
/// this build does not link (core/adj_list_es.hpp); P=max uses this
/// machine's hardware concurrency; timeout scaled to 120 s.
/// Expected shape: AdjListES slowest by a large factor; SeqES /
/// SeqGlobalES fastest sequential; parallel versions fastest at P=max with
/// ParGlobalES within ~2x of the (inexact) NaiveParES.
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 4 — runtime table (20 supersteps)", "paper §6.2.1, Fig. 4");
    Timer total;
    constexpr std::uint64_t kSupersteps = 20;
    constexpr double kTimeout = 120.0;
    const unsigned pmax = bench_max_threads();

    auto corpus = corpus_bench();
    // Mirror the paper's table: sorted by size, largest first.
    std::sort(corpus.begin(), corpus.end(), [](const auto& a, const auto& b) {
        return a.graph.num_edges() > b.graph.num_edges();
    });

    TextTable table({"graph", "n", "m", "dmax", "AdjListES", "SeqES", "SeqGlobalES",
                     "NaiveParES P=1", "ParES P=1", "ParGlobalES P=1",
                     "NaiveParES P=" + std::to_string(pmax),
                     "ParGlobalES P=" + std::to_string(pmax)});

    for (const auto& entry : corpus) {
        const auto deg = entry.graph.degrees();
        const auto dmax = *std::max_element(deg.begin(), deg.end());

        auto measure = [&](ChainAlgorithm algo, unsigned threads) {
            ChainConfig config;
            config.seed = 4242;
            config.threads = threads;
            return format_cell(time_chain(algo, entry.graph, config, kSupersteps, kTimeout));
        };

        table.add_row({entry.name, fmt_si(double(entry.graph.num_nodes())),
                       fmt_si(double(entry.graph.num_edges())), fmt_si(double(dmax)),
                       measure(ChainAlgorithm::kAdjListES, 1),
                       measure(ChainAlgorithm::kSeqES, 1),
                       measure(ChainAlgorithm::kSeqGlobalES, 1),
                       measure(ChainAlgorithm::kNaiveParES, 1),
                       measure(ChainAlgorithm::kParES, 1),
                       measure(ChainAlgorithm::kParGlobalES, 1),
                       measure(ChainAlgorithm::kNaiveParES, pmax),
                       measure(ChainAlgorithm::kParGlobalES, pmax)});
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig4");
    std::cout << "\nAll cells: seconds for init + " << kSupersteps
              << " supersteps; — marks the " << kTimeout << " s timeout.\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
