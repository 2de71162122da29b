/// \file edge_set_backend.hpp
/// \brief Selection enum and counter types shared by the two
/// ConcurrentEdgeSet backends.
///
/// `ConcurrentEdgeSet` is a facade over two interchangeable tables with the
/// same 56-bit key / 8-bit owner bucket layout (docs/hashing.md):
///
///   * kLocked   — per-bucket CAS + striped same-key locks (the seed
///                 implementation, LockedEdgeSet);
///   * kLockFree — linear probing over cache-line-aligned buckets with a
///                 bounded probe-sequence length and epoch-reclaimed
///                 rebuilds (LockFreeEdgeSet).
///
/// The backend is a pure runtime knob: exact chains produce byte-identical
/// trajectories on either table, so it never enters ChainState.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gesmc {

enum class EdgeSetBackend {
    kLocked,
    kLockFree,
};

/// Result of try_insert_and_lock on either backend.
enum class EdgeSetInsertLock { kInserted, kExists, kExistsLocked };

/// Live-key and tombstone count changes that a writer accumulates locally
/// and publishes with one ConcurrentEdgeSet::commit().  Bulk writers keep
/// one per chunk, so no per-key read-modify-write touches the shared
/// counters; single-key calls commit a one-element delta.
struct EdgeSetDelta {
    std::int64_t live = 0;
    std::int64_t tombs = 0;
};

/// The live-key and tombstone counts each backend keeps.  Writers change
/// them only by committing deltas, so they are exact at quiescent points.
struct EdgeSetCounters {
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> tombs{0};

    void commit(const EdgeSetDelta& delta) noexcept {
        // Two's-complement wrap makes a negative delta a subtraction.
        if (delta.live != 0) {
            live.fetch_add(static_cast<std::uint64_t>(delta.live), std::memory_order_relaxed);
        }
        if (delta.tombs != 0) {
            tombs.fetch_add(static_cast<std::uint64_t>(delta.tombs), std::memory_order_relaxed);
        }
    }

    /// After a rebuild: `live_keys` live keys, no tombstones.
    void reset(std::uint64_t live_keys) noexcept {
        live.store(live_keys, std::memory_order_relaxed);
        tombs.store(0, std::memory_order_relaxed);
    }
};

[[nodiscard]] std::string to_string(EdgeSetBackend backend);

/// Parses "locked" / "lockfree"; nullopt for anything else.
[[nodiscard]] std::optional<EdgeSetBackend>
edge_set_backend_from_string(std::string_view name);

/// All valid config spellings, in enum order (for error messages / docs).
[[nodiscard]] const std::vector<std::string>& edge_set_backend_names();

} // namespace gesmc
