/// \file bench_fig2_mixing_synpld.cpp
/// \brief Figure 2: fraction of non-independent edges vs thinning value,
/// G-ES-MC vs ES-MC, on SynPld power-law graphs.
///
/// Paper setup: (n, gamma) in {2^7, 2^10, 2^13} x {2.01, 2.1, 2.2, 2.5},
/// 40 graphs each, thinning up to ~100 supersteps.  Scaled-down here:
/// n in {2^7, 2^10}, 3 runs, thinning up to 32 (to keep the bench to
/// minutes; the G-ES-MC <= ES-MC ordering is already visible at these
/// sizes in the paper's own figure).  Expected shape: both curves decay with k;
/// G-ES-MC at or below ES-MC, with a growing advantage for larger gamma.
#include "analysis/convergence.hpp"
#include "bench_util/harness.hpp"
#include "gen/corpus.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <cmath>
#include <iostream>

using namespace gesmc;

int main() {
    print_bench_header("Figure 2 — mixing on SynPld (fraction of non-independent edges)",
                       "paper §6.1, Figure 2");
    Timer total;

    const std::vector<std::uint64_t> node_counts{1u << 7, 1u << 10};
    const std::vector<double> gammas{2.01, 2.1, 2.2, 2.5};

    MixingExperimentConfig config;
    config.max_thinning = 32;
    config.samples_at_max = 25;
    config.runs = 3;
    config.track = ThinningAutocorrelation::Track::kInitialEdges;

    TextTable table({"n", "gamma", "chain", "k=1", "k=2", "k=4", "k=8", "k=16", "k=32"});
    const auto thinning = default_thinning_values(config.max_thinning);
    auto value_at = [&](const MixingCurve& curve, std::uint32_t k) {
        for (std::size_t i = 0; i < curve.thinning.size(); ++i) {
            if (curve.thinning[i] == k) return fmt_double(curve.mean[i], 3);
        }
        return std::string("-");
    };

    for (const auto n : node_counts) {
        for (const double gamma : gammas) {
            const EdgeList graph = generate_powerlaw_graph(static_cast<node_t>(n), gamma,
                                                           900 + static_cast<int>(gamma * 100));
            config.base_seed = n * 131 + static_cast<std::uint64_t>(gamma * 1000);
            for (const auto algo :
                 {ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kSeqES}) {
                const MixingCurve curve = mixing_curve(algo, graph, config);
                table.add_row({"2^" + fmt_double(std::log2(double(n)), 0), fmt_double(gamma, 2),
                               algo == ChainAlgorithm::kSeqGlobalES ? "G-ES-MC" : "ES-MC",
                               value_at(curve, 1), value_at(curve, 2), value_at(curve, 4),
                               value_at(curve, 8), value_at(curve, 16), value_at(curve, 32)});
            }
        }
    }

    table.print(std::cout);
    table.print_csv(std::cout, "fig2");
    std::cout << "\nShape check (paper): both chains decay with k; G-ES-MC at or below\n"
                 "ES-MC, advantage growing with gamma.\n"
              << "Total: " << fmt_seconds(total.elapsed_s()) << "\n";
    return 0;
}
