#include "hashing/lockfree_edge_set.hpp"

#include "hashing/edge_set_stats.hpp"
#include "hashing/live_keys.hpp"
#include "obs/metrics.hpp"

#include <algorithm>

namespace gesmc {

namespace {
constexpr std::uint64_t kLockShift = LockFreeEdgeSet::kKeyBits;
constexpr std::uint64_t kUnlockedMask = LockFreeEdgeSet::kKeyMask;

constexpr std::uint64_t key_of(std::uint64_t bucket) noexcept { return bucket & kUnlockedMask; }
constexpr unsigned owner_of(std::uint64_t bucket) noexcept {
    return static_cast<unsigned>(bucket >> kLockShift);
}

struct LockFreeMetrics {
    obs::Counter& lookups =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.lookups");
    obs::Counter& probe_steps =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.probe_steps");
    obs::Counter& inserts =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.inserts");
    obs::Counter& insert_collisions =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.insert_collisions");
    obs::Counter& cas_retries =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.cas_retries");
    obs::Counter& rebuilds =
        obs::MetricsRegistry::instance().counter("hashset.lockfree.rebuilds");
    obs::Gauge& psl_max =
        obs::MetricsRegistry::instance().gauge("hashset.lockfree.psl_max");
};

LockFreeMetrics& lockfree_metrics() noexcept {
    static LockFreeMetrics& m = *new LockFreeMetrics();
    return m;
}

[[nodiscard]] bool measuring() noexcept {
    return obs::metrics_enabled() || edge_set_stats_active();
}
} // namespace

/// The bucket storage: lines of eight 64-bit buckets, each line on its own
/// cache line, plus the per-table probe limit.  The limit starts at the
/// PSL bound and is raised (once, monotonically) to the full table size by
/// the first placement that overflows the bound — raised *before* the
/// overflowing key is published, so a reader that can observe the key also
/// observes the extended limit.
struct LockFreeEdgeSet::Table {
    explicit Table(std::uint64_t cap)
        : mask(cap - 1),
          shift(64 - log2_floor(cap)),
          probe_limit(std::min<std::uint64_t>(kMaxPsl, cap)),
          lines(cap / 8) {
        GESMC_CHECK(cap >= 64 && (cap & (cap - 1)) == 0, "table size must be a power of two >= 64");
    }

    [[nodiscard]] std::atomic<std::uint64_t>& slot(std::uint64_t idx) noexcept {
        return lines[idx >> 3].slots[idx & 7];
    }
    [[nodiscard]] const std::atomic<std::uint64_t>& slot(std::uint64_t idx) const noexcept {
        return lines[idx >> 3].slots[idx & 7];
    }
    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift;
    }
    [[nodiscard]] std::uint64_t capacity() const noexcept { return mask + 1; }
    [[nodiscard]] std::uint64_t limit() const noexcept {
        return probe_limit.load(std::memory_order_acquire);
    }

    const std::uint64_t mask;
    const unsigned shift;
    std::atomic<std::uint64_t> probe_limit;
    std::atomic<bool> overflowed{false};

    struct alignas(64) Line {
        Line() noexcept {
            for (auto& s : slots) s.store(LockFreeEdgeSet::kEmpty, std::memory_order_relaxed);
        }
        std::atomic<std::uint64_t> slots[8];
    };
    std::vector<Line> lines;
};

void LockFreeEdgeSet::flag_overflow(Table& t) noexcept {
    // seq_cst stores so the raised limit is globally visible before the
    // overflowing placement CAS that follows in program order.
    t.overflowed.store(true, std::memory_order_seq_cst);
    t.probe_limit.store(t.capacity(), std::memory_order_seq_cst);
}

LockFreeEdgeSet::LockFreeEdgeSet(std::uint64_t max_live_keys) {
    // Same 4x headroom as the locked backend; at <= 1/4 live load the PSL
    // bound is effectively never hit.
    const std::uint64_t cap = next_pow2(std::max<std::uint64_t>(64, max_live_keys * 4));
    table_.store(new Table(cap), std::memory_order_release);
}

LockFreeEdgeSet::~LockFreeEdgeSet() {
    delete table_.load(std::memory_order_acquire);
    // epochs_ frees any tables still in limbo.
}

std::uint64_t LockFreeEdgeSet::bucket_count() const noexcept { return table()->capacity(); }

std::uint64_t LockFreeEdgeSet::key_at_bucket(std::uint64_t idx) const noexcept {
    const Table* t = table();
    const std::uint64_t key = t->slot(idx).load(std::memory_order_relaxed) & kUnlockedMask;
    return (key == kTomb) ? 0 : key;
}

bool LockFreeEdgeSet::psl_overflowed() const noexcept {
    return table()->overflowed.load(std::memory_order_relaxed);
}

bool LockFreeEdgeSet::needs_rebuild() const noexcept {
    const Table* t = table();
    return counts_.tombs.load(std::memory_order_relaxed) > t->capacity() / 4 ||
           t->overflowed.load(std::memory_order_relaxed);
}

void LockFreeEdgeSet::prefetch(std::uint64_t key) const noexcept {
    const Table* t = table();
    prefetch_read_2lines(&t->slot(t->home(key)));
}

void LockFreeEdgeSet::note_psl(std::uint64_t distance) noexcept {
    std::uint64_t cur = psl_max_.load(std::memory_order_relaxed);
    while (distance > cur &&
           !psl_max_.compare_exchange_weak(cur, distance, std::memory_order_relaxed)) {
    }
    if (distance > cur && measuring()) {
        lockfree_metrics().psl_max.set(
            static_cast<std::int64_t>(psl_max_.load(std::memory_order_relaxed)));
        if (EdgeSetOpStats* ls = edge_set_thread_stats(); ls && distance > ls->psl_max) {
            ls->psl_max = distance;
        }
    }
}

bool LockFreeEdgeSet::contains(std::uint64_t key) const noexcept {
    const Table* t = table();
    const std::uint64_t lim = t->limit();
    std::uint64_t idx = t->home(key);
    if (!measuring()) {
        for (std::uint64_t dist = 0; dist < lim; ++dist) {
            const std::uint64_t k = key_of(t->slot(idx).load(std::memory_order_acquire));
            if (k == key) return true;
            if (k == kEmpty) return false;
            idx = (idx + 1) & t->mask;
        }
        return false; // probed the whole bound: a live key cannot sit deeper
    }
    LockFreeMetrics& m = lockfree_metrics();
    m.lookups.add(1);
    EdgeSetOpStats* ls = edge_set_thread_stats();
    if (ls) ls->lookups += 1;
    for (std::uint64_t dist = 0; dist < lim; ++dist) {
        const std::uint64_t k = key_of(t->slot(idx).load(std::memory_order_acquire));
        if (k == key || k == kEmpty) {
            m.probe_steps.add(dist + 1);
            if (ls) ls->probe_steps += dist + 1;
            return k == key;
        }
        idx = (idx + 1) & t->mask;
    }
    m.probe_steps.add(lim);
    if (ls) ls->probe_steps += lim;
    return false;
}

/// Probe-and-claim without any lock: duplicates are impossible because a
/// bucket only ever transitions empty -> occupied (erase leaves a tombstone
/// and tombstones are never recycled), so all racing inserters of a key
/// converge on the same first-CASable-empty bucket.
bool LockFreeEdgeSet::insert_impl(std::uint64_t key, std::uint64_t locked_state,
                                  std::uint64_t* slot_out, bool* exists_locked_out,
                                  EdgeSetDelta& delta) {
    Table* t = table();
    const std::uint64_t value = key | locked_state;
    const std::uint64_t home_idx = t->home(key);
    const bool measure = measuring();
    std::uint64_t lim = t->limit();
    std::uint64_t retries = 0;
    std::uint64_t dist = 0;
    for (;;) {
        if (dist >= lim) {
            // No slot for this key within the current probe limit.  Extend
            // the limit (scheduling a rebuild) rather than fail: the table
            // still has room, just not within the bound.
            GESMC_CHECK(lim < t->capacity(), "LockFreeEdgeSet overfull — missing rebuild?");
            flag_overflow(*t);
            lim = t->capacity();
        }
        const std::uint64_t idx = (home_idx + dist) & t->mask;
        const std::uint64_t bucket = t->slot(idx).load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            if (slot_out) *slot_out = idx;
            if (exists_locked_out) *exists_locked_out = owner_of(bucket) != 0;
            if (measure) {
                LockFreeMetrics& m = lockfree_metrics();
                if (dist > 0) m.insert_collisions.add(dist);
                if (retries > 0) m.cas_retries.add(retries);
                if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                    ls->probe_steps += dist + 1;
                    ls->cas_retries += retries;
                }
            }
            return false;
        }
        if (k == kEmpty) {
            // Publish the raised limit *before* a placement beyond the
            // bound becomes visible, so no reader can find the key
            // unreachable.
            if (dist >= kMaxPsl) flag_overflow(*t);
            std::uint64_t expected = kEmpty;
            if (t->slot(idx).compare_exchange_strong(expected, value,
                                                     std::memory_order_acq_rel)) {
                delta.live += 1;
                note_psl(dist);
                if (measure) {
                    LockFreeMetrics& m = lockfree_metrics();
                    m.inserts.add(1);
                    if (dist > 0) m.insert_collisions.add(dist);
                    if (retries > 0) m.cas_retries.add(retries);
                    if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                        ls->inserts += 1;
                        ls->probe_steps += dist + 1;
                        ls->cas_retries += retries;
                    }
                }
                if (slot_out) *slot_out = idx;
                return true;
            }
            // Lost the race for this bucket: it is occupied now (possibly
            // by our own key).  Re-examine the same distance.
            ++retries;
            continue;
        }
        ++dist; // occupied by another key or a tombstone
    }
}

bool LockFreeEdgeSet::insert(std::uint64_t key) {
    EdgeSetDelta delta;
    const bool inserted = insert_unique(key, delta);
    commit(delta);
    return inserted;
}

bool LockFreeEdgeSet::insert_unique(std::uint64_t key, EdgeSetDelta& delta) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    return insert_impl(key, 0, nullptr, nullptr, delta);
}

bool LockFreeEdgeSet::erase(std::uint64_t key) {
    EdgeSetDelta delta;
    const bool erased = erase_unique(key, delta);
    commit(delta);
    return erased;
}

bool LockFreeEdgeSet::erase_unique(std::uint64_t key, EdgeSetDelta& delta) {
    Table* t = table();
    const std::uint64_t lim = t->limit();
    std::uint64_t idx = t->home(key);
    const bool measure = measuring();
    for (std::uint64_t dist = 0; dist < lim; ++dist) {
        std::uint64_t bucket = t->slot(idx).load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            std::uint64_t retries = 0;
            for (;;) {
                // Checked on every pass: a word reloaded after a concurrent
                // erase is a tombstone, and a CAS from it would count a
                // second erase of the same key.
                if (key_of(bucket) != key) return false; // vanished concurrently
                if (owner_of(bucket) == 0 &&
                    t->slot(idx).compare_exchange_weak(bucket, kTomb,
                                                       std::memory_order_acq_rel)) {
                    delta.live -= 1;
                    delta.tombs += 1;
                    if (measure) {
                        if (retries > 0) lockfree_metrics().cas_retries.add(retries);
                        if (EdgeSetOpStats* ls = edge_set_thread_stats()) {
                            ls->erases += 1;
                            ls->probe_steps += dist + 1;
                            ls->cas_retries += retries;
                        }
                    }
                    return true;
                }
                ++retries; // transient ticket owner: spin it out
                bucket = t->slot(idx).load(std::memory_order_acquire);
            }
        }
        if (k == kEmpty) return false;
        idx = (idx + 1) & t->mask;
    }
    return false;
}

std::optional<std::uint64_t> LockFreeEdgeSet::try_lock(std::uint64_t key, unsigned tid) noexcept {
    Table* t = table();
    const std::uint64_t locked = key | (static_cast<std::uint64_t>(tid + 1) << kLockShift);
    const std::uint64_t lim = t->limit();
    std::uint64_t idx = t->home(key);
    for (std::uint64_t dist = 0; dist < lim; ++dist) {
        std::uint64_t bucket = t->slot(idx).load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            if (owner_of(bucket) != 0) return std::nullopt; // already locked
            if (t->slot(idx).compare_exchange_strong(bucket, locked,
                                                     std::memory_order_acq_rel)) {
                return idx;
            }
            return std::nullopt; // raced: state changed under us
        }
        if (k == kEmpty) return std::nullopt;
        idx = (idx + 1) & t->mask;
    }
    return std::nullopt;
}

LockFreeEdgeSet::InsertLock LockFreeEdgeSet::try_insert_and_lock(std::uint64_t key, unsigned tid,
                                                                 std::uint64_t& slot_out) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    const std::uint64_t locked_state = static_cast<std::uint64_t>(tid + 1) << kLockShift;
    EdgeSetDelta delta;
    bool exists_locked = false;
    const bool inserted = insert_impl(key, locked_state, &slot_out, &exists_locked, delta);
    commit(delta);
    if (inserted) return InsertLock::kInserted;
    return exists_locked ? InsertLock::kExistsLocked : InsertLock::kExists;
}

void LockFreeEdgeSet::unlock(std::uint64_t slot) noexcept {
    Table* t = table();
    const std::uint64_t bucket = t->slot(slot).load(std::memory_order_relaxed);
    t->slot(slot).store(key_of(bucket), std::memory_order_release);
}

void LockFreeEdgeSet::erase_locked(std::uint64_t slot) noexcept {
    Table* t = table();
    t->slot(slot).store(kTomb, std::memory_order_release);
    commit({.live = -1, .tombs = 1});
}

void LockFreeEdgeSet::rebuild(ThreadPool& pool) {
    Table* old = table_.load(std::memory_order_acquire);
    // The old table stays intact: guarded readers may still probe it.
    const auto key_at = [this](std::uint64_t idx) { return key_at_bucket(idx); };
    const std::vector<std::uint64_t> live =
        gather_live_keys(pool, old->capacity(), size(), key_at, key_at);

    // Re-place into a fresh table over the pool, doubling until every
    // placement honours the PSL bound (one doubling is essentially always
    // enough: the bound only broke because tombstones or an adversarial
    // key cluster stretched a probe chain).  The live keys are distinct,
    // so racing placements only ever compete for empty buckets.
    std::uint64_t target = next_pow2(std::max<std::uint64_t>(64, live.size() * 4));
    Table* fresh = nullptr;
    std::vector<std::uint64_t> chunk_psl(pool.num_threads());
    for (;;) {
        fresh = new Table(target);
        std::atomic<bool> bounded{true};
        std::fill(chunk_psl.begin(), chunk_psl.end(), 0);
        pool.for_chunks(0, live.size(), [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t max_dist = 0;
            for (std::uint64_t k = lo; k < hi && bounded.load(std::memory_order_relaxed); ++k) {
                std::uint64_t dist = 0;
                std::uint64_t idx = fresh->home(live[k]);
                for (;;) {
                    std::atomic<std::uint64_t>& slot = fresh->slot(idx);
                    std::uint64_t expected = kEmpty;
                    if (slot.load(std::memory_order_relaxed) == kEmpty &&
                        slot.compare_exchange_strong(expected, live[k],
                                                     std::memory_order_relaxed)) {
                        break;
                    }
                    idx = (idx + 1) & fresh->mask;
                    if (++dist >= kMaxPsl) {
                        bounded.store(false, std::memory_order_relaxed);
                        return;
                    }
                }
                max_dist = std::max(max_dist, dist);
            }
            chunk_psl[tid] = max_dist;
        });
        if (bounded.load(std::memory_order_relaxed)) break;
        delete fresh;
        target <<= 1;
        GESMC_CHECK(target != 0, "LockFreeEdgeSet rebuild overflowed the size domain");
    }
    const std::uint64_t max_psl = *std::max_element(chunk_psl.begin(), chunk_psl.end());

    // No fence: a reader that pins an epoch after retire()'s seq_cst bump
    // synchronizes with it and so sees `fresh`; one pinned earlier keeps
    // `old` alive.
    table_.store(fresh, std::memory_order_release);
    counts_.reset(live.size());
    psl_max_.store(max_psl, std::memory_order_relaxed);
    if (obs::metrics_enabled()) lockfree_metrics().rebuilds.add(1);

    epochs_.retire(old, [](void* p) { delete static_cast<Table*>(p); });
    epochs_.collect();
}

} // namespace gesmc
