/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the library: generate a graph with a
/// prescribed degree sequence, randomize it with the parallel global edge
/// switching chain (ParGlobalES), and verify the degrees are untouched.
///
///   ./examples/quickstart [n] [gamma] [supersteps]
#include "core/chain.hpp"
#include "gen/corpus.hpp"
#include "graph/degree_sequence.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <cstdlib>
#include <iostream>
#include <string>

using namespace gesmc;

int main(int argc, char** argv) {
    const node_t n = argc > 1 ? static_cast<node_t>(std::atoi(argv[1])) : 20000;
    const double gamma = argc > 2 ? std::atof(argv[2]) : 2.2;
    const std::uint64_t supersteps = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 10;

    std::cout << "1. Build an initial graph with a power-law degree sequence\n"
              << "   (Pld([1..n^(1/(gamma-1))], gamma) realized by Havel-Hakimi):\n";
    const EdgeList initial = generate_powerlaw_graph(n, gamma, /*seed=*/42);
    const DegreeSequence degrees = degree_sequence_of(initial);
    std::cout << "   n = " << initial.num_nodes() << ", m = " << initial.num_edges()
              << ", max degree = " << degrees.max_degree() << "\n\n";

    std::cout << "2. Randomize with G-ES-MC (ParGlobalES), " << supersteps
              << " global switches:\n";
    ChainConfig config;
    config.seed = 1;
    config.threads = hardware_threads();
    auto chain = make_chain(ChainAlgorithm::kParGlobalES, initial, config);
    Timer timer;
    chain->run_supersteps(supersteps);
    const double secs = timer.elapsed_s();

    const auto& st = chain->stats();
    std::cout << "   " << st.attempted << " switches attempted, " << st.accepted
              << " accepted (" << fmt_double(100.0 * st.accepted / st.attempted, 1)
              << "%), " << st.rejected_loop << " loop / " << st.rejected_edge
              << " multi-edge rejections\n"
              << "   mean rounds per global switch: "
              << (st.rounds_total == 0
                      ? std::string("none (sequential base case: one thread or a small graph)")
                      : fmt_double(double(st.rounds_total) / double(st.supersteps), 2))
              << "\n"
              << "   wall time: " << fmt_seconds(secs) << " ("
              << fmt_si(double(st.attempted) / secs) << " switches/s)\n\n";

    std::cout << "3. Verify the sample:\n";
    const EdgeList& randomized = chain->graph();
    const bool degrees_ok = randomized.degrees() == degrees.degrees();
    std::cout << "   simple: " << (randomized.is_simple() ? "yes" : "NO!")
              << ", degrees preserved: " << (degrees_ok ? "yes" : "NO!")
              << ", graph changed: " << (randomized.same_graph(initial) ? "NO!" : "yes")
              << "\n";
    return (randomized.is_simple() && degrees_ok) ? 0 : 1;
}
