#include "hashing/concurrent_edge_set.hpp"

#include "obs/metrics.hpp"
#include "util/bits.hpp"

#include <thread>

namespace gesmc {

namespace {
constexpr std::uint64_t kLockShift = ConcurrentEdgeSet::kKeyBits;
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

constexpr std::uint64_t key_of(std::uint64_t bucket) noexcept {
    return bucket & ConcurrentEdgeSet::kKeyMask;
}
constexpr unsigned owner_of(std::uint64_t bucket) noexcept {
    return static_cast<unsigned>(bucket >> kLockShift);
}

/// Probe statistics, counted locally per call and added once at the end —
/// the disabled cost on the contains() hot path is one relaxed load and a
/// predictable branch.
struct TableMetrics {
    obs::Counter& lookups =
        obs::MetricsRegistry::instance().counter("hashset.locked.lookups");
    obs::Counter& probe_steps =
        obs::MetricsRegistry::instance().counter("hashset.locked.probe_steps");
    obs::Counter& inserts =
        obs::MetricsRegistry::instance().counter("hashset.locked.inserts");
    obs::Counter& insert_collisions =
        obs::MetricsRegistry::instance().counter("hashset.locked.insert_collisions");
    obs::Counter& cas_retries =
        obs::MetricsRegistry::instance().counter("hashset.locked.cas_retries");
    obs::Counter& rebuilds =
        obs::MetricsRegistry::instance().counter("hashset.locked.rebuilds");
    obs::Gauge& psl_max =
        obs::MetricsRegistry::instance().gauge("hashset.locked.psl_max");
};

TableMetrics& table_metrics() noexcept {
    static TableMetrics& m = *new TableMetrics();
    return m;
}
} // namespace

void ConcurrentEdgeSet::check_domain(std::uint64_t key) {
    GESMC_CHECK(in_domain(key), "key out of the 56-bit domain");
}

ConcurrentEdgeSet::ConcurrentEdgeSet(std::uint64_t max_live_keys, EdgeSetBackend) {
    // 4x headroom: live keys stay below 1/4 load, tombstones may add another
    // 1/4 before maybe_rebuild() compacts, so probes stay short.
    const std::uint64_t cap = next_pow2(std::max<std::uint64_t>(64, max_live_keys * 4));
    table_ = std::vector<std::atomic<std::uint64_t>>(cap);
    for (auto& b : table_) b.store(kEmpty, std::memory_order_relaxed);
    stripes_ = std::vector<std::atomic<std::uint8_t>>(kStripes);
    for (auto& s : stripes_) s.store(0, std::memory_order_relaxed);
    mask_ = cap - 1;
    shift_ = 64 - log2_floor(cap);
}

void ConcurrentEdgeSet::note_psl(std::uint64_t distance) noexcept {
    std::uint64_t cur = psl_max_.load(std::memory_order_relaxed);
    while (distance > cur &&
           !psl_max_.compare_exchange_weak(cur, distance, std::memory_order_relaxed)) {
    }
    if (distance > cur) {
        table_metrics().psl_max.set(
            static_cast<std::int64_t>(psl_max_.load(std::memory_order_relaxed)));
    }
}

bool ConcurrentEdgeSet::contains(std::uint64_t key) const noexcept {
    if (!in_domain(key)) return false;
    std::uint64_t idx = home(key);
    std::uint64_t k = key_of(table_[idx].load(std::memory_order_acquire));
    std::uint64_t probes = 1;
    while (k != key && k != kEmpty && probes <= mask_) { // stops after the whole table
        idx = (idx + 1) & mask_;
        k = key_of(table_[idx].load(std::memory_order_acquire));
        ++probes;
    }
    if (obs::metrics_enabled()) {
        TableMetrics& m = table_metrics();
        m.lookups.add(1);
        m.probe_steps.add(probes);
    }
    return k == key;
}

void ConcurrentEdgeSet::lock_stripe(std::atomic<std::uint8_t>& s) noexcept {
    unsigned spins = 0;
    std::uint64_t retries = 0;
    for (;;) {
        std::uint8_t expected = 0;
        if (s.compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
            if (retries > 0) table_metrics().cas_retries.add(retries);
            return;
        }
        ++retries;
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

/// Core probe-and-claim. Must run with same-key operations excluded (either
/// under the key's stripe lock or by the insert_unique contract).
bool ConcurrentEdgeSet::insert_impl(std::uint64_t key, std::uint64_t locked_state,
                                    std::uint64_t* slot_out, bool* exists_locked_out,
                                    EdgeSetDelta& delta) {
    const std::uint64_t value = key | locked_state;
    std::uint64_t retries = 0;
    const auto placed = [&](std::uint64_t slot, std::uint64_t probes) {
        if (obs::metrics_enabled()) {
            TableMetrics& m = table_metrics();
            m.inserts.add(1);
            if (probes > 0) m.insert_collisions.add(probes);
            if (retries > 0) m.cas_retries.add(retries);
            note_psl((slot - home(key)) & mask_);
        }
        if (slot_out) *slot_out = slot;
        return true;
    };
retry:
    std::uint64_t idx = home(key);
    std::uint64_t first_tomb = kNoSlot;
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            if (slot_out) *slot_out = idx;
            if (exists_locked_out) *exists_locked_out = owner_of(bucket) != 0;
            return false;
        }
        if (k == kTomb && first_tomb == kNoSlot) {
            first_tomb = idx;
        } else if (k == kEmpty) {
            // Prefer recycling the first tombstone of the probe chain.
            if (first_tomb != kNoSlot) {
                std::uint64_t expected = kTomb;
                if (table_[first_tomb].compare_exchange_strong(expected, value,
                                                               std::memory_order_acq_rel)) {
                    delta.tombs -= 1;
                    delta.live += 1;
                    return placed(first_tomb, probes);
                }
                ++retries;
                goto retry; // another key claimed the tombstone; rescan
            }
            std::uint64_t expected = kEmpty;
            if (table_[idx].compare_exchange_strong(expected, value,
                                                    std::memory_order_acq_rel)) {
                delta.live += 1;
                return placed(idx, probes);
            }
            ++retries;
            continue; // slot taken by another key; re-examine the same slot
        }
        idx = (idx + 1) & mask_;
    }
    GESMC_CHECK(false, "ConcurrentEdgeSet overfull — missing rebuild?");
    return false;
}

bool ConcurrentEdgeSet::insert(std::uint64_t key) {
    check_domain(key);
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    const bool inserted = insert_impl(key, 0, nullptr, nullptr, delta);
    s.store(0, std::memory_order_release);
    commit(delta);
    return inserted;
}

bool ConcurrentEdgeSet::insert_unique(std::uint64_t key, EdgeSetDelta& delta) {
    check_domain(key);
    return insert_impl(key, 0, nullptr, nullptr, delta);
}

bool ConcurrentEdgeSet::erase(std::uint64_t key) {
    check_domain(key); // before the stripe lock: a throw must not leave it held
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    const bool erased = erase_unique(key, delta);
    s.store(0, std::memory_order_release);
    commit(delta);
    return erased;
}

bool ConcurrentEdgeSet::erase_unique(std::uint64_t key, EdgeSetDelta& delta) {
    check_domain(key);
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            // Spin out transient locks held by ticket holders (NaiveParES
            // never erases a key another thread still has locked, but the
            // general API tolerates brief lock windows).
            for (;;) {
                // Checked on every pass: a word reloaded after a ticket
                // holder's erase_locked is a tombstone, and a CAS from it
                // would count a second erase of the same key.
                if (key_of(bucket) != key) return false; // vanished concurrently
                if (owner_of(bucket) == 0 &&
                    table_[idx].compare_exchange_weak(bucket, kTomb,
                                                      std::memory_order_acq_rel)) {
                    delta.live -= 1;
                    delta.tombs += 1;
                    return true;
                }
                table_metrics().cas_retries.add(1);
                std::this_thread::yield();
                bucket = table_[idx].load(std::memory_order_acquire);
            }
        }
        if (k == kEmpty) return false;
        idx = (idx + 1) & mask_;
    }
    return false;
}

std::optional<std::uint64_t> ConcurrentEdgeSet::try_lock(std::uint64_t key,
                                                         unsigned tid) noexcept {
    if (!in_domain(key)) return std::nullopt;
    const std::uint64_t locked = key | (static_cast<std::uint64_t>(tid + 1) << kLockShift);
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            if (owner_of(bucket) != 0) return std::nullopt; // already locked
            if (table_[idx].compare_exchange_strong(bucket, locked,
                                                    std::memory_order_acq_rel)) {
                return idx;
            }
            return std::nullopt; // raced: state changed under us
        }
        if (k == kEmpty) return std::nullopt;
        idx = (idx + 1) & mask_;
    }
    return std::nullopt;
}

ConcurrentEdgeSet::InsertLock ConcurrentEdgeSet::try_insert_and_lock(std::uint64_t key,
                                                                     unsigned tid,
                                                                     std::uint64_t& slot_out) {
    check_domain(key);
    const std::uint64_t locked_state = static_cast<std::uint64_t>(tid + 1) << kLockShift;
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    bool exists_locked = false;
    const bool inserted = insert_impl(key, locked_state, &slot_out, &exists_locked, delta);
    s.store(0, std::memory_order_release);
    commit(delta);
    if (inserted) return InsertLock::kInserted;
    return exists_locked ? InsertLock::kExistsLocked : InsertLock::kExists;
}

void ConcurrentEdgeSet::unlock(std::uint64_t slot) noexcept {
    const std::uint64_t bucket = table_[slot].load(std::memory_order_relaxed);
    table_[slot].store(key_of(bucket), std::memory_order_release);
}

void ConcurrentEdgeSet::erase_locked(std::uint64_t slot) noexcept {
    table_[slot].store(kTomb, std::memory_order_release);
    commit({.live = -1, .tombs = 1});
}

void ConcurrentEdgeSet::rebuild(ThreadPool& pool) {
    // Every chunk moves its live keys into one buffer of exactly size()
    // keys, clearing each bucket as it reads it.  With more than one chunk,
    // each first counts its live keys to find its offset in the buffer; a
    // single chunk's offset is 0, so it skips that pass.  for_chunks splits
    // the table the same way both times.
    const std::uint64_t live = size();
    std::vector<std::uint64_t> offset(pool.num_threads() + 1, 0);
    if (pool.num_threads() == 1) {
        offset[1] = live;
    } else {
        pool.for_chunks(0, table_.size(), [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t count = 0;
            for (std::uint64_t idx = lo; idx < hi; ++idx) count += key_at_bucket(idx) != kEmpty;
            offset[tid + 1] = count;
        });
        for (std::size_t t = 1; t < offset.size(); ++t) offset[t] += offset[t - 1];
    }
    GESMC_CHECK(offset.back() == live, "edge-set live count disagrees with its table");
    std::vector<std::uint64_t> keys(live);
    std::vector<std::uint64_t> end(offset.begin(), offset.end() - 1); // a chunk's next slot
    pool.for_chunks(0, table_.size(), [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t out = offset[tid];
        for (std::uint64_t idx = lo; idx < hi; ++idx) {
            const std::uint64_t key = key_at_bucket(idx);
            table_[idx].store(kEmpty, std::memory_order_relaxed);
            if (key == kEmpty) continue;
            if (out < offset[tid + 1]) keys[out] = key;
            ++out;
        }
        end[tid] = out;
    });
    for (std::size_t t = 0; t < end.size(); ++t) {
        GESMC_CHECK(end[t] == offset[t + 1], "edge-set live count disagrees with its table");
    }

    // Reinserting every live key leaves size() as it was: only the
    // tombstones go.
    counts_.tombs.store(0, std::memory_order_relaxed);
    psl_max_.store(0, std::memory_order_relaxed);
    pool.for_chunks(0, keys.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        EdgeSetDelta unused;
        for (std::uint64_t k = lo; k < hi; ++k) insert_impl(keys[k], 0, nullptr, nullptr, unused);
    });
    table_metrics().rebuilds.add(1);
}

} // namespace gesmc
