/// \file lockfree_edge_set.hpp
/// \brief The lock-free ConcurrentEdgeSet backend: bounded-PSL linear
/// probing over cache-line-aligned buckets with epoch-reclaimed rebuilds.
///
/// Same 64-bit bucket word as the locked backend (56 key bits, 8 owner
/// bits) but no locks anywhere:
///
///   * Buckets live in alignas(64) lines of eight, so a probe window of
///     8 buckets costs at most two cache lines and the prefetch hint of
///     paper §5.4 covers it exactly.
///   * Inserts claim **empty buckets only** (CAS kEmpty -> key).  Because
///     a bucket transitions empty -> occupied exactly once between
///     rebuilds, two racing inserters of the same key converge on the same
///     first-empty bucket — the CAS loser re-reads it, sees the key, and
///     reports "exists".  Tombstone recycling is what would break this
///     (a recycled bucket can be claimed while a second inserter has
///     already probed past it), so tombstones are only reclaimed by
///     rebuild().
///   * Probe-sequence length is bounded: every placement must land within
///     kMaxPsl buckets of its home.  A placement that cannot raises the
///     table's probe limit (rare, flips needs_rebuild()) so readers stay
///     correct; otherwise every lookup terminates after at most kMaxPsl
///     branch-predictable steps.  rebuild() re-places all keys and grows
///     the table until the bound holds again.
///   * rebuild() publishes a fresh table through an atomic pointer and
///     retires the old one to an EpochDomain — readers holding an
///     EpochDomain::Guard (see ConcurrentEdgeSet::ReadGuard) never block
///     and never touch freed memory.  Chain hot paths skip the guard
///     because chains rebuild only at quiescent points.
///
/// The NaiveParES ticket calls (try_lock / try_insert_and_lock /
/// erase_locked / unlock) CAS the owner byte inside the bucket word, same
/// as the locked backend.  Full layout walk-through: docs/hashing.md.
#pragma once

#include "hashing/edge_set_backend.hpp"
#include "hashing/epoch.hpp"
#include "hashing/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

namespace gesmc {

class LockFreeEdgeSet {
public:
    static constexpr std::uint64_t kKeyBits = 56;
    static constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = kKeyMask;

    /// Probe-sequence-length bound: a placement farther than this from its
    /// home bucket raises the table's probe limit and schedules a rebuild.
    /// 64 buckets = 8 cache lines, comfortably beyond the probe lengths a
    /// 1/4-load table produces (p50 is 1-2) yet small enough that the
    /// worst-case lookup stays branch-predictable.
    static constexpr std::uint64_t kMaxPsl = 64;

    using InsertLock = EdgeSetInsertLock;

    explicit LockFreeEdgeSet(std::uint64_t max_live_keys);
    ~LockFreeEdgeSet();

    LockFreeEdgeSet(const LockFreeEdgeSet&) = delete;
    LockFreeEdgeSet& operator=(const LockFreeEdgeSet&) = delete;

    [[nodiscard]] std::uint64_t size() const noexcept {
        return counts_.live.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t tombstones() const noexcept {
        return counts_.tombs.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept;

    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    void prefetch(std::uint64_t key) const noexcept;

    /// Insert / erase are safe under arbitrary concurrency.  The _unique
    /// spellings run the same probe code (there are no locks to skip) but
    /// only record their counter change in `delta`, which commit()
    /// publishes.
    bool insert(std::uint64_t key);
    bool erase(std::uint64_t key);
    bool insert_unique(std::uint64_t key, EdgeSetDelta& delta);
    bool erase_unique(std::uint64_t key, EdgeSetDelta& delta);

    /// Publishes a writer's accumulated counter changes.
    void commit(const EdgeSetDelta& delta) noexcept { counts_.commit(delta); }

    std::optional<std::uint64_t> try_lock(std::uint64_t key, unsigned tid) noexcept;
    InsertLock try_insert_and_lock(std::uint64_t key, unsigned tid, std::uint64_t& slot_out);
    void unlock(std::uint64_t slot) noexcept;
    void erase_locked(std::uint64_t slot) noexcept;

    /// True when tombstones crossed the rebuild threshold or a placement
    /// overflowed the PSL bound.
    [[nodiscard]] bool needs_rebuild() const noexcept;

    /// Publishes a compacted (and, if the PSL bound demands it, grown)
    /// table, filled over `pool`; the old one is epoch-retired.  NOT safe
    /// against concurrent writers — call at a quiescent point.  Readers
    /// holding a guard are fine.
    void rebuild(ThreadPool& pool);

    /// The key stored in bucket `idx`, or 0 for an empty/tombstone bucket.
    [[nodiscard]] std::uint64_t key_at_bucket(std::uint64_t idx) const noexcept;

    /// Largest placement distance since the last rebuild.  <= kMaxPsl
    /// unless an overflow raised the probe limit.
    [[nodiscard]] std::uint64_t max_psl() const noexcept {
        return psl_max_.load(std::memory_order_relaxed);
    }

    /// True once a placement exceeded kMaxPsl (cleared by rebuild).
    [[nodiscard]] bool psl_overflowed() const noexcept;

    /// The reclamation domain — ConcurrentEdgeSet::ReadGuard pins it.
    [[nodiscard]] EpochDomain& epochs() const noexcept { return epochs_; }

    /// Retired tables not yet freed (tests observe epoch deferral).
    [[nodiscard]] std::size_t retired_tables() const { return epochs_.retired_count(); }

    template <typename F>
    void for_each(F&& fn) const {
        const std::uint64_t buckets = bucket_count();
        for (std::uint64_t idx = 0; idx < buckets; ++idx) {
            const std::uint64_t key = key_at_bucket(idx);
            if (key != kEmpty) fn(key);
        }
    }

private:
    struct Table;

    [[nodiscard]] Table* table() const noexcept {
        return table_.load(std::memory_order_acquire);
    }

    bool insert_impl(std::uint64_t key, std::uint64_t locked_state, std::uint64_t* slot_out,
                     bool* exists_locked_out, EdgeSetDelta& delta);
    void note_psl(std::uint64_t distance) noexcept;
    static void flag_overflow(Table& t) noexcept;

    std::atomic<Table*> table_{nullptr};
    mutable EpochDomain epochs_;
    EdgeSetCounters counts_;
    std::atomic<std::uint64_t> psl_max_{0};
};

} // namespace gesmc
