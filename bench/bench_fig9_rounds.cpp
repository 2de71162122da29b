/// \file bench_fig9_rounds.cpp
/// \brief Figure 9: rounds per global switch and the runtime share of the
/// rounds after the first.
///
/// Paper setup: 20 global switches per NetRep graph at P=32; average
/// rounds 2.2, max 8; for m > 4e6 the first round accounts for > 99% of
/// the runtime.  Ours: the NetRep-like corpus at P = hardware concurrency
/// (at least 2: one-thread chains run the sequential base case, which has
/// no rounds), with small_graph_cutoff = 0 so every graph runs Algorithm 3.
/// Expected shape: mean rounds in the low single digits, higher for
/// skewed degree sequences; the later-rounds runtime fraction shrinks with
/// graph size.
#include "bench_util/harness.hpp"
#include "core/par_global_es.hpp"
#include "gen/corpus.hpp"
#include "graph/degree_sequence.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 9 — rounds per global switch", "paper §6.2.3, Fig. 9");
    Timer total;
    constexpr std::uint64_t kGlobalSwitches = 20;
    const unsigned threads = std::max(2u, bench_max_threads());

    auto corpus = corpus_bench();
    std::sort(corpus.begin(), corpus.end(), [](const auto& a, const auto& b) {
        return a.graph.num_edges() < b.graph.num_edges();
    });

    TextTable table({"graph", "m", "mean rounds", "max rounds", "later-rounds time frac",
                     "Thm2 bound 4*D^2/m"});
    double rounds_sum = 0;
    std::uint64_t rounds_max = 0;
    int graphs = 0;

    for (const auto& entry : corpus) {
        ChainConfig config;
        config.seed = 2023;
        config.threads = threads;
        config.small_graph_cutoff = 0;
        ParGlobalES chain(entry.graph, config);
        chain.run_supersteps(kGlobalSwitches);
        const auto& st = chain.stats();
        const double mean_rounds =
            static_cast<double>(st.rounds_total) / static_cast<double>(st.supersteps);
        const double frac =
            st.later_rounds_seconds / (st.first_round_seconds + st.later_rounds_seconds);
        const DegreeSequence seq = degree_sequence_of(entry.graph);
        table.add_row({entry.name, fmt_si(double(entry.graph.num_edges())),
                       fmt_double(mean_rounds, 2), std::to_string(st.rounds_max),
                       fmt_double(frac, 4), fmt_double(seq.theorem2_round_bound(), 1)});
        rounds_sum += mean_rounds;
        rounds_max = std::max(rounds_max, st.rounds_max);
        ++graphs;
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig9");
    std::cout << "\nCorpus mean of mean-rounds: " << fmt_double(rounds_sum / graphs, 2)
              << " (paper: 2.2), max observed: " << rounds_max << " (paper: 8).\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
