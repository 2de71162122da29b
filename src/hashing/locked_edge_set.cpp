#include "hashing/locked_edge_set.hpp"

#include "hashing/edge_set_stats.hpp"
#include "hashing/live_keys.hpp"
#include "obs/metrics.hpp"

#include <thread>

namespace gesmc {

namespace {
constexpr std::uint64_t kLockShift = LockedEdgeSet::kKeyBits;
constexpr std::uint64_t kUnlockedMask = LockedEdgeSet::kKeyMask;
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

constexpr std::uint64_t key_of(std::uint64_t bucket) noexcept { return bucket & kUnlockedMask; }
constexpr unsigned owner_of(std::uint64_t bucket) noexcept {
    return static_cast<unsigned>(bucket >> kLockShift);
}

/// Probe statistics, counted locally per call and added once at the end —
/// the disabled cost on the contains() hot path is two relaxed loads and a
/// predictable branch (obs flag + the bench-rig stats hook).
struct LockedMetrics {
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

LockedMetrics& locked_metrics() noexcept {
    static LockedMetrics& m = *new LockedMetrics();
    return m;
}

[[nodiscard]] bool measuring() noexcept {
    return obs::metrics_enabled() || edge_set_stats_active();
}
} // namespace

LockedEdgeSet::LockedEdgeSet(std::uint64_t max_live_keys) {
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

void LockedEdgeSet::note_psl(std::uint64_t distance) noexcept {
    std::uint64_t cur = psl_max_.load(std::memory_order_relaxed);
    while (distance > cur &&
           !psl_max_.compare_exchange_weak(cur, distance, std::memory_order_relaxed)) {
    }
    if (distance > cur) {
        locked_metrics().psl_max.set(
            static_cast<std::int64_t>(psl_max_.load(std::memory_order_relaxed)));
        if (EdgeSetOpStats* ls = edge_set_thread_stats(); ls && distance > ls->psl_max) {
            ls->psl_max = distance;
        }
    }
}

bool LockedEdgeSet::contains(std::uint64_t key) const noexcept {
    if (!measuring()) {
        std::uint64_t idx = home(key);
        for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
            const std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
            const std::uint64_t k = key_of(bucket);
            if (k == key) return true;
            if (k == kEmpty) return false;
            idx = (idx + 1) & mask_;
        }
        return false; // table fully scanned (cannot happen at load <= 1/2)
    }
    LockedMetrics& m = locked_metrics();
    m.lookups.add(1);
    EdgeSetOpStats* ls = edge_set_thread_stats();
    if (ls) ls->lookups += 1;
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key || k == kEmpty) {
            m.probe_steps.add(probes + 1);
            if (ls) ls->probe_steps += probes + 1;
            return k == key;
        }
        idx = (idx + 1) & mask_;
    }
    m.probe_steps.add(mask_ + 1);
    if (ls) ls->probe_steps += mask_ + 1;
    return false;
}

void LockedEdgeSet::lock_stripe(std::atomic<std::uint8_t>& s) noexcept {
    unsigned spins = 0;
    std::uint64_t retries = 0;
    for (;;) {
        std::uint8_t expected = 0;
        if (s.compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
            if (retries > 0 && measuring()) {
                locked_metrics().cas_retries.add(retries);
                if (EdgeSetOpStats* ls = edge_set_thread_stats()) ls->cas_retries += retries;
            }
            return;
        }
        ++retries;
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

void LockedEdgeSet::unlock_stripe(std::atomic<std::uint8_t>& s) noexcept {
    s.store(0, std::memory_order_release);
}

/// Core probe-and-claim. Must run with same-key operations excluded (either
/// under the key's stripe lock or by the insert_unique contract).
bool LockedEdgeSet::insert_impl(std::uint64_t key, std::uint64_t locked_state,
                                std::uint64_t* slot_out, bool* exists_locked_out,
                                EdgeSetDelta& delta) {
    const std::uint64_t value = key | locked_state;
    const bool measure = measuring();
    std::uint64_t retries = 0;
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
                    if (measure) {
                        LockedMetrics& m = locked_metrics();
                        m.inserts.add(1);
                        if (probes > 0) m.insert_collisions.add(probes);
                        if (retries > 0) m.cas_retries.add(retries);
                        if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                            ls->inserts += 1;
                            ls->probe_steps += probes + 1;
                            ls->cas_retries += retries;
                        }
                        note_psl((first_tomb - home(key)) & mask_);
                    }
                    if (slot_out) *slot_out = first_tomb;
                    return true;
                }
                ++retries;
                goto retry; // another key claimed the tombstone; rescan
            }
            std::uint64_t expected = kEmpty;
            if (table_[idx].compare_exchange_strong(expected, value,
                                                    std::memory_order_acq_rel)) {
                delta.live += 1;
                if (measure) {
                    LockedMetrics& m = locked_metrics();
                    m.inserts.add(1);
                    if (probes > 0) m.insert_collisions.add(probes);
                    if (retries > 0) m.cas_retries.add(retries);
                    if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                        ls->inserts += 1;
                        ls->probe_steps += probes + 1;
                        ls->cas_retries += retries;
                    }
                    note_psl((idx - home(key)) & mask_);
                }
                if (slot_out) *slot_out = idx;
                return true;
            }
            ++retries;
            continue; // slot taken by another key; re-examine the same slot
        }
        idx = (idx + 1) & mask_;
    }
    GESMC_CHECK(false, "LockedEdgeSet overfull — missing rebuild?");
    return false;
}

bool LockedEdgeSet::insert(std::uint64_t key) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    const bool inserted = insert_impl(key, 0, nullptr, nullptr, delta);
    unlock_stripe(s);
    commit(delta);
    return inserted;
}

bool LockedEdgeSet::insert_unique(std::uint64_t key, EdgeSetDelta& delta) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    return insert_impl(key, 0, nullptr, nullptr, delta);
}

bool LockedEdgeSet::erase(std::uint64_t key) {
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    const bool erased = erase_unique(key, delta);
    unlock_stripe(s);
    commit(delta);
    return erased;
}

bool LockedEdgeSet::erase_unique(std::uint64_t key, EdgeSetDelta& delta) {
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
                    if (measuring()) {
                        if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                            ls->erases += 1;
                            ls->probe_steps += probes + 1;
                        }
                    }
                    return true;
                }
                if (measuring()) {
                    locked_metrics().cas_retries.add(1);
                    if (EdgeSetOpStats* ls = edge_set_thread_stats()) ls->cas_retries += 1;
                }
                std::this_thread::yield();
                bucket = table_[idx].load(std::memory_order_acquire);
            }
        }
        if (k == kEmpty) return false;
        idx = (idx + 1) & mask_;
    }
    return false;
}

std::optional<std::uint64_t> LockedEdgeSet::try_lock(std::uint64_t key, unsigned tid) noexcept {
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

LockedEdgeSet::InsertLock LockedEdgeSet::try_insert_and_lock(std::uint64_t key, unsigned tid,
                                                             std::uint64_t& slot_out) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    const std::uint64_t locked_state = static_cast<std::uint64_t>(tid + 1) << kLockShift;
    auto& s = stripe(key);
    EdgeSetDelta delta;
    lock_stripe(s);
    bool exists_locked = false;
    const bool inserted = insert_impl(key, locked_state, &slot_out, &exists_locked, delta);
    unlock_stripe(s);
    commit(delta);
    if (inserted) return InsertLock::kInserted;
    return exists_locked ? InsertLock::kExistsLocked : InsertLock::kExists;
}

void LockedEdgeSet::unlock(std::uint64_t slot) noexcept {
    const std::uint64_t bucket = table_[slot].load(std::memory_order_relaxed);
    table_[slot].store(key_of(bucket), std::memory_order_release);
}

void LockedEdgeSet::erase_locked(std::uint64_t slot) noexcept {
    table_[slot].store(kTomb, std::memory_order_release);
    commit({.live = -1, .tombs = 1});
}

void LockedEdgeSet::rebuild(ThreadPool& pool) {
    // Gathering clears each bucket as it reads it: one pass over the table.
    const std::vector<std::uint64_t> live = gather_live_keys(
        pool, table_.size(), size(), [this](std::uint64_t idx) { return key_at_bucket(idx); },
        [this](std::uint64_t idx) {
            const std::uint64_t key = key_at_bucket(idx);
            table_[idx].store(kEmpty, std::memory_order_relaxed);
            return key;
        });
    counts_.reset(0);
    psl_max_.store(0, std::memory_order_relaxed);
    pool.for_chunks(0, live.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        EdgeSetDelta delta;
        for (std::uint64_t k = lo; k < hi; ++k) insert_impl(live[k], 0, nullptr, nullptr, delta);
        commit(delta);
    });
    if (obs::metrics_enabled()) locked_metrics().rebuilds.add(1);
}

} // namespace gesmc
