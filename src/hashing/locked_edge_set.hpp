/// \file locked_edge_set.hpp
/// \brief The striped-lock ConcurrentEdgeSet backend (paper §5.2).
///
/// The seed implementation, now one of two backends behind the
/// ConcurrentEdgeSet facade (see edge_set_backend.hpp, docs/hashing.md).
/// Open addressing over flat 64-bit buckets: 56 key bits, 8 owner bits.
/// Same-key insert/erase races are serialized by 4096 striped byte
/// spinlocks; tombstones are recycled in place, so probe chains stay short
/// without rebuilds under balanced churn.
///
/// Thread-safety contract (shared by both backends):
///  * contains is lock-free and may run concurrently with everything else;
///  * insert / erase are safe under arbitrary concurrency;
///  * insert_unique / erase_unique require no concurrent same-key ops and
///    only record their counter change in the caller's EdgeSetDelta, which
///    commit() publishes;
///  * try_lock / try_insert_and_lock / erase_locked / unlock implement the
///    NaiveParES ticket semantics (§5.1);
///  * rebuild() only at quiescent points.
#pragma once

#include "hashing/edge_set_backend.hpp"
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

class LockedEdgeSet {
public:
    static constexpr std::uint64_t kKeyBits = 56;
    static constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = kKeyMask;

    using InsertLock = EdgeSetInsertLock;

    explicit LockedEdgeSet(std::uint64_t max_live_keys);

    LockedEdgeSet(const LockedEdgeSet&) = delete;
    LockedEdgeSet& operator=(const LockedEdgeSet&) = delete;

    [[nodiscard]] std::uint64_t size() const noexcept {
        return counts_.live.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t tombstones() const noexcept {
        return counts_.tombs.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return table_.size(); }

    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    void prefetch(std::uint64_t key) const noexcept {
        prefetch_read_2lines(&table_[home(key)]);
    }

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

    [[nodiscard]] bool needs_rebuild() const noexcept {
        return counts_.tombs.load(std::memory_order_relaxed) > table_.size() / 4;
    }

    /// Clears the table and reinserts the live keys over `pool`.
    void rebuild(ThreadPool& pool);

    /// The key stored in bucket `idx`, or 0 for an empty/tombstone bucket.
    [[nodiscard]] std::uint64_t key_at_bucket(std::uint64_t idx) const noexcept {
        const std::uint64_t key = table_[idx].load(std::memory_order_relaxed) & kKeyMask;
        return (key == kTomb) ? 0 : key;
    }

    /// Largest placement distance any insert has observed (resets on
    /// rebuild): the table's effective probe-length bound.
    [[nodiscard]] std::uint64_t max_psl() const noexcept {
        return psl_max_.load(std::memory_order_relaxed);
    }

    template <typename F>
    void for_each(F&& fn) const {
        for (const auto& bucket : table_) {
            const std::uint64_t key = bucket.load(std::memory_order_relaxed) & kKeyMask;
            if (key != kEmpty && key != kTomb) fn(key);
        }
    }

private:
    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    [[nodiscard]] std::atomic<std::uint8_t>& stripe(std::uint64_t key) noexcept {
        return stripes_[(edge_hash(key) >> 8) & (kStripes - 1)];
    }

    void lock_stripe(std::atomic<std::uint8_t>& s) noexcept;
    void unlock_stripe(std::atomic<std::uint8_t>& s) noexcept;
    void note_psl(std::uint64_t distance) noexcept;

    bool insert_impl(std::uint64_t key, std::uint64_t locked_state, std::uint64_t* slot_out,
                     bool* exists_locked_out, EdgeSetDelta& delta);

    static constexpr std::uint64_t kStripes = 4096;

    std::vector<std::atomic<std::uint64_t>> table_;
    std::vector<std::atomic<std::uint8_t>> stripes_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
    EdgeSetCounters counts_;
    std::atomic<std::uint64_t> psl_max_{0};
};

} // namespace gesmc
