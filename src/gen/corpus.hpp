/// \file corpus.hpp
/// \brief NetRep-like synthetic corpus (substitute for the paper's §6 data).
///
/// The paper evaluates on graphs from the Network Repository.  That dataset
/// is not redistributable/downloadable in this offline build, so we
/// substitute a fixed, seeded corpus of synthetic graphs that spans the
/// same (size, density, degree-skew) region:
///   * power-law graphs of several exponents/sizes (social / web / bio /
///     collaboration-like) realized with Havel–Hakimi — high skew, high
///     target-dependency rate;
///   * 2D grid graphs (road-network-like) — near-regular, very sparse;
///   * d-regular graphs — the paper's Theorem 2 best case;
///   * G(n,p) at several densities (including dense) — near-regular.
/// The switching algorithms interact with a graph only through its size and
/// degree sequence (dependency rates are driven by d_u * d_v, Theorems 2/3),
/// so this corpus exercises the same regimes as the paper's NetRep sample.
#pragma once

#include "graph/edge_list.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace gesmc {

/// 2D grid graph (rows x cols), the road-like corpus member.
EdgeList generate_grid(node_t rows, node_t cols);

/// d-regular graph on n nodes via Havel–Hakimi (n*d must be even).
EdgeList generate_regular(node_t n, std::uint32_t degree);

/// Power-law graph: Pld([1..n^{1/(gamma-1)}], gamma) degrees realized by
/// Havel–Hakimi — exactly the paper's SynPld construction.
EdgeList generate_powerlaw_graph(node_t n, double gamma, std::uint64_t seed);

struct CorpusEntry {
    std::string name;     ///< stable identifier, loosely mirroring NetRep names
    std::string category; ///< social / road / regular / gnp / web / bio / ...
    EdgeList graph;
};

/// Small corpus for unit/integration tests (fast to build, m <= ~20k).
std::vector<CorpusEntry> corpus_test();

/// Bench corpus mirroring the paper's NetRep sample: ~16 graphs with
/// 1e3 <= m <= ~3e5 spanning density and skew. Deterministic.
std::vector<CorpusEntry> corpus_bench();

} // namespace gesmc
