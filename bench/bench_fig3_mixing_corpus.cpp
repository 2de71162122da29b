/// \file bench_fig3_mixing_corpus.cpp
/// \brief Figure 3: first superstep (thinning value) at which the mean
/// non-independence rate drops below tau, per corpus graph.
///
/// Paper setup: NetRep graphs with 1000 <= m <= 800k, tau in {1e-2, 1e-3},
/// >= 15 runs, tracking restricted to the edges of the initial graph.
/// Scaled-down substitute: the NetRep-like corpus members with m <= 60k,
/// 2 runs, to keep the bench to minutes (NetRep itself is not
/// redistributable, see gen/corpus.hpp).  Expected shape: G-ES-MC reaches
/// the threshold at a thinning value no larger than ES-MC on most graphs;
/// dense graphs converge slower for both chains.
#include "analysis/convergence.hpp"
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <iostream>

using namespace gesmc;

namespace {

std::string fmt_first(const std::optional<std::uint32_t>& k) {
    return k ? std::to_string(*k) : ">max";
}

} // namespace

int main() {
    print_bench_header("Figure 3 — first thinning below tau on the NetRep-like corpus",
                       "paper §6.1, Figure 3");
    Timer total;

    MixingExperimentConfig config;
    config.max_thinning = 24;
    config.samples_at_max = 20;
    config.runs = 2;
    config.track = ThinningAutocorrelation::Track::kInitialEdges;

    constexpr double kTauLoose = 1e-2;
    constexpr double kTauTight = 1e-3;

    TextTable table({"graph", "m", "density", "chain", "k(tau=1e-2)", "k(tau=1e-3)"});
    int ges_not_worse_loose = 0, comparisons = 0;

    for (const auto& entry : corpus_bench()) {
        if (entry.graph.num_edges() > 60000) continue; // runtime budget
        config.base_seed = 555 + entry.graph.num_edges();
        std::optional<std::uint32_t> ges_loose;
        for (const auto algo : {ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kSeqES}) {
            const MixingCurve curve = mixing_curve(algo, entry.graph, config);
            const auto loose = first_thinning_below(curve, kTauLoose);
            const auto tight = first_thinning_below(curve, kTauTight);
            table.add_row({entry.name, fmt_si(double(entry.graph.num_edges())),
                           fmt_double(entry.graph.density(), 6),
                           algo == ChainAlgorithm::kSeqGlobalES ? "G-ES-MC" : "ES-MC",
                           fmt_first(loose), fmt_first(tight)});
            if (algo == ChainAlgorithm::kSeqGlobalES) {
                ges_loose = loose;
            } else if (ges_loose || loose) {
                ++comparisons;
                const std::uint32_t g = ges_loose ? *ges_loose : config.max_thinning * 2;
                const std::uint32_t e = loose ? *loose : config.max_thinning * 2;
                if (g <= e) ++ges_not_worse_loose;
            }
        }
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig3");
    std::cout << "\nG-ES-MC reaches tau=1e-2 at a thinning <= ES-MC on " << ges_not_worse_loose
              << "/" << comparisons << " graphs (paper: consistently, except very dense).\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
