/// \file edge_set_backend.hpp
/// \brief Leftover names of the former edge-set backend choice.
///
/// ConcurrentEdgeSet has one implementation.  Nothing in src/ reads these
/// names; they stay only until the repository benchmark stops using them.
#pragma once

#include <string>

namespace gesmc {

/// Exists only so perfbench/ builds.
enum class EdgeSetBackend { kLocked };

/// Exists only so perfbench/ builds: it names the hashset.locked.* counters.
[[nodiscard]] inline std::string to_string(EdgeSetBackend /*unused*/) { return "locked"; }

} // namespace gesmc
