/// \file concurrent_edge_set.hpp
/// \brief The concurrent edge hash set of the parallel chains (paper §5.2).
///
/// The paper stores each edge in a 64-bit-wide bucket: 56 bits hold the
/// (canonical) edge key, 8 bits are reserved for locking.  A processing
/// unit acquires a lock by compare-and-swapping its thread id into the lock
/// bits, which succeeds only if the bucket held the edge in an unlocked
/// state.  Buckets are *stable*: once a key is placed it never moves until
/// erased (open addressing with linear probing and tombstones), so a bucket
/// index is a valid handle for unlock/erase.  This supports graphs with up
/// to 2^28 nodes and up to 254 threads — the same restriction as the paper.
/// Same-key insert/erase races are serialized by 4096 striped byte
/// spinlocks; inserts recycle the first tombstone of their probe chain.
///
/// Thread-safety contract:
///  * contains is lock-free and may run concurrently with everything else;
///  * insert / erase are safe under arbitrary concurrency;
///  * insert_unique / erase_unique are variants whose callers guarantee
///    that no two threads operate on the *same key* concurrently — exactly
///    the situation in the batch update phase of ParallelSuperstep (at most
///    one legal inserter / eraser per edge) — so they skip the stripe lock;
///  * counter contract: bulk writers pass an EdgeSetDelta to the _unique
///    calls and publish it with one commit() per chunk, so no per-key
///    read-modify-write hits the shared live/tombstone counters.  size()
///    and needs_rebuild() are therefore exact only at quiescent points
///    (every other call, the single-key _unique calls included, commits
///    its own change before returning);
///  * try_lock / try_insert_and_lock / erase_locked / unlock implement the
///    ticket semantics of NaiveParES (§5.1).  Bucket handles are
///    invalidated by rebuild(), so no ticket may be held across one;
///  * rebuild() only at quiescent points (no concurrent readers either: it
///    clears and refills the table in place); chains pass their pool, which
///    gathers, clears and reinserts the live keys in parallel.
///
/// Keys lie in (0, 2^56-1): 0 marks an empty bucket and 2^56-1 a tombstone.
/// Writers reject other keys with an Error; contains() and try_lock() just
/// report them absent.  Tombstones accumulate under erase; when their share
/// crosses a quarter of the table, callers rebuild at a quiescent point via
/// maybe_rebuild().
#pragma once

#include "hashing/edge_set_backend.hpp"
#include "hashing/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/bounded.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace gesmc {

/// Result of ConcurrentEdgeSet::try_insert_and_lock.
enum class EdgeSetInsertLock { kInserted, kExists, kExistsLocked };

/// Live-key and tombstone count changes that a writer accumulates locally
/// and publishes with one ConcurrentEdgeSet::commit().  Bulk writers keep
/// one per chunk, so no per-key read-modify-write touches the shared
/// counters; single-key calls commit a one-element delta.
struct EdgeSetDelta {
    std::int64_t live = 0;
    std::int64_t tombs = 0;
};

/// The table's live-key and tombstone counts.  Writers change them only by
/// committing deltas, so they are exact at quiescent points.
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
};

class ConcurrentEdgeSet {
public:
    static constexpr std::uint64_t kKeyBits = 56;
    static constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = kKeyMask; // all key bits set: encodes the
                                                     // impossible loop (2^28-1, 2^28-1)

    using InsertLock = EdgeSetInsertLock;

    /// Bounds on sample_uniform's random probing before it falls back to a
    /// count-and-index scan: at the sizing headroom's >= 1/4 live load a
    /// draw hits a live bucket with p >= 1/4, so 64 draws fail with
    /// p <= (3/4)^64 ~ 1e-8 — the scan is a sparse-table / tombstone-flood
    /// escape hatch, not a steady state.
    static constexpr unsigned kMaxSampleDraws = 64;

    /// Creates a set sized for `max_live_keys` simultaneously live keys.
    /// The second parameter exists only so perfbench/ builds; it is ignored.
    explicit ConcurrentEdgeSet(std::uint64_t max_live_keys,
                               EdgeSetBackend /*unused*/ = EdgeSetBackend::kLocked);

    ConcurrentEdgeSet(const ConcurrentEdgeSet&) = delete;
    ConcurrentEdgeSet& operator=(const ConcurrentEdgeSet&) = delete;

    [[nodiscard]] std::uint64_t size() const noexcept {
        return counts_.live.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return table_.size(); }
    /// Erased buckets awaiting the next rebuild.
    [[nodiscard]] std::uint64_t tombstones() const noexcept {
        return counts_.tombs.load(std::memory_order_relaxed);
    }

    /// Lock-free existence query (ignores lock bits); false for keys
    /// outside (0, 2^56-1).
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    /// Issues a prefetch for the probe window of key (paper §5.4).
    void prefetch(std::uint64_t key) const noexcept {
        prefetch_read_2lines(&table_[home(key)]);
    }

    /// General-purpose insert; returns false if the key was present.
    bool insert(std::uint64_t key);

    /// General-purpose erase; returns false if the key was absent.
    bool erase(std::uint64_t key);

    /// Insert under the no-concurrent-same-key contract. Returns false if
    /// present.  The counter change goes to `delta`, not to size(), until
    /// commit(delta).
    bool insert_unique(std::uint64_t key, EdgeSetDelta& delta);

    /// Erase under the no-concurrent-same-key contract. Returns false if
    /// absent.  The counter change goes to `delta` until commit(delta).
    bool erase_unique(std::uint64_t key, EdgeSetDelta& delta);

    /// Publishes the counter changes accumulated in `delta`.
    void commit(const EdgeSetDelta& delta) noexcept { counts_.commit(delta); }

    /// The one-element batch: insert_unique plus its commit.
    bool insert_unique(std::uint64_t key) {
        EdgeSetDelta delta;
        const bool inserted = insert_unique(key, delta);
        commit(delta);
        return inserted;
    }

    /// The one-element batch: erase_unique plus its commit.
    bool erase_unique(std::uint64_t key) {
        EdgeSetDelta delta;
        const bool erased = erase_unique(key, delta);
        commit(delta);
        return erased;
    }

    /// Inserts `keys` over `pool`, one commit per chunk.  The keys must be
    /// distinct and absent (e.g. the edges of a simple graph).
    void insert_unique_all(ThreadPool& pool, std::span<const std::uint64_t> keys) {
        const std::uint64_t before = size();
        pool.for_chunks(0, keys.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            EdgeSetDelta delta;
            for (std::uint64_t k = lo; k < hi; ++k) insert_unique(keys[k], delta);
            commit(delta);
        });
        GESMC_CHECK(size() - before == keys.size(), "insert_unique_all: duplicate or present key");
    }

    // ------------------------------------------------------------- tickets

    /// Attempts to lock an existing unlocked key. Returns the bucket index
    /// on success. tid must be in [0, 254); the stored owner is tid+1.
    std::optional<std::uint64_t> try_lock(std::uint64_t key, unsigned tid) noexcept;

    /// Attempts to insert key in locked state. On kInserted the bucket index
    /// is stored in slot_out and the caller owns the lock.
    InsertLock try_insert_and_lock(std::uint64_t key, unsigned tid, std::uint64_t& slot_out);

    /// Releases a lock acquired by try_lock / try_insert_and_lock.
    void unlock(std::uint64_t slot) noexcept;

    /// Erases the key in a bucket currently locked by the caller.
    void erase_locked(std::uint64_t slot) noexcept;

    // ------------------------------------------------------------- service

    /// True when tombstones fill more than a quarter of the buckets.
    [[nodiscard]] bool needs_rebuild() const noexcept { return tombstones() > table_.size() / 4; }

    /// Compacts tombstones away, gathering, clearing and reinserting the
    /// live keys over `pool`. NOT safe against concurrent readers or
    /// writers: call at a quiescent point.
    void rebuild(ThreadPool& pool);

    /// rebuild(pool) on the calling thread alone.
    void rebuild() {
        ThreadPool caller_only(1);
        rebuild(caller_only);
    }

    /// rebuild(pool) iff needs_rebuild().
    void maybe_rebuild(ThreadPool& pool) {
        if (needs_rebuild()) rebuild(pool);
    }

    /// rebuild() iff needs_rebuild().
    void maybe_rebuild() {
        if (needs_rebuild()) rebuild();
    }

    /// Calls fn(key) for every live key. NOT thread-safe against writers.
    template <typename F>
    void for_each(F&& fn) const {
        for (std::uint64_t idx = 0; idx < table_.size(); ++idx) {
            const std::uint64_t key = key_at_bucket(idx);
            if (key != kEmpty) fn(key);
        }
    }

    /// Samples a uniformly random live key by probing random buckets
    /// (paper §5.3, "sample directly from the hash-set" option).  NOT
    /// thread-safe against writers.  Expected draws: 1 / load factor.
    /// Draws are capped at kMaxSampleDraws: a sparse or tombstone-flooded
    /// table (possible when callers defer maybe_rebuild) falls back to
    /// counting the live keys and returning a uniformly drawn one by index,
    /// so a call can never spin unboundedly.  Each rejection draw is
    /// uniform over the live keys and so is the fallback, hence the
    /// mixture stays exactly uniform.
    template <typename Urbg>
    [[nodiscard]] std::uint64_t sample_uniform(Urbg& gen) const {
        GESMC_CHECK(size() > 0, "cannot sample from an empty set");
        const std::uint64_t buckets = bucket_count();
        for (unsigned draw = 0; draw < kMaxSampleDraws; ++draw) {
            const std::uint64_t key = key_at_bucket(uniform_below(gen, buckets));
            if (key != kEmpty) return key;
        }
        std::uint64_t live = 0;
        for (std::uint64_t i = 0; i < buckets; ++i) {
            if (key_at_bucket(i) != kEmpty) ++live;
        }
        GESMC_CHECK(live > 0, "sample_uniform found no live key despite size() > 0");
        std::uint64_t r = uniform_below(gen, live);
        for (std::uint64_t i = 0; i < buckets; ++i) {
            const std::uint64_t key = key_at_bucket(i);
            if (key != kEmpty && r-- == 0) return key;
        }
        GESMC_CHECK(false, "live keys changed under sample_uniform");
        return kEmpty;
    }

private:
    /// True for the storable keys (0, 2^56-1).
    [[nodiscard]] static constexpr bool in_domain(std::uint64_t key) noexcept {
        return key - 1 < kTomb - 1;
    }

    /// Throws Error for a key outside (0, 2^56-1).
    static void check_domain(std::uint64_t key);

    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    /// The key stored in bucket `idx`, or 0 for an empty/tombstone bucket.
    [[nodiscard]] std::uint64_t key_at_bucket(std::uint64_t idx) const noexcept {
        const std::uint64_t key = table_[idx].load(std::memory_order_relaxed) & kKeyMask;
        return (key == kTomb) ? kEmpty : key;
    }

    [[nodiscard]] std::atomic<std::uint8_t>& stripe(std::uint64_t key) noexcept {
        return stripes_[(edge_hash(key) >> 8) & (kStripes - 1)];
    }

    void lock_stripe(std::atomic<std::uint8_t>& s) noexcept;
    void note_psl(std::uint64_t distance) noexcept;

    bool insert_impl(std::uint64_t key, std::uint64_t locked_state, std::uint64_t* slot_out,
                     bool* exists_locked_out, EdgeSetDelta& delta);

    static constexpr std::uint64_t kStripes = 4096;

    std::vector<std::atomic<std::uint64_t>> table_;
    std::vector<std::atomic<std::uint8_t>> stripes_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
    EdgeSetCounters counts_;
    std::atomic<std::uint64_t> psl_max_{0}; ///< feeds the hashset.locked.psl_max gauge
};

} // namespace gesmc
