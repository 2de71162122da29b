// Tests for the hashing substrate: hash functions, sequential robin-hood
// set, concurrent edge set (incl. ticket semantics), dependency table.
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/dependency_table.hpp"
#include "hashing/edge_set_backend.hpp"
#include "hashing/hash.hpp"
#include "hashing/lockfree_edge_set.hpp"
#include "hashing/robin_set.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/bounded.hpp"
#include "rng/mt19937_64.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace gesmc {
namespace {

// ------------------------------------------------------------------ hash

TEST(Hash, HardwareAndSoftwareCrcAgree) {
#if defined(__SSE4_2__)
    Mt19937_64 gen(1);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t key = gen();
        const auto hw = static_cast<std::uint32_t>(_mm_crc32_u64(0xB2D05E13u, key));
        EXPECT_EQ(hw, detail::crc32c_sw(0xB2D05E13u, key)) << key;
    }
#else
    GTEST_SKIP() << "no SSE4.2 on this target";
#endif
}

TEST(Hash, NoObviousCollisionsOnSequentialKeys) {
    std::set<std::uint64_t> crc, mix;
    for (std::uint64_t i = 1; i <= 50000; ++i) {
        crc.insert(crc_hash(i));
        mix.insert(mix_hash(i));
    }
    EXPECT_EQ(crc.size(), 50000u);
    EXPECT_EQ(mix.size(), 50000u);
}

TEST(Hash, HighBitsAreSpread) {
    // Tables index with the top bits; sequential keys must not cluster.
    constexpr unsigned kBuckets = 64;
    std::vector<int> hist(kBuckets, 0);
    constexpr int n = 64000;
    for (std::uint64_t i = 1; i <= n; ++i) ++hist[edge_hash(i) >> 58];
    const double expect = static_cast<double>(n) / kBuckets;
    for (int c : hist) {
        EXPECT_GT(c, expect * 0.7);
        EXPECT_LT(c, expect * 1.3);
    }
}

// ------------------------------------------------------------- robin set

TEST(RobinSet, BasicInsertContainsErase) {
    RobinSet set;
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(42));
    EXPECT_TRUE(set.insert(42));
    EXPECT_FALSE(set.insert(42));
    EXPECT_TRUE(set.contains(42));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(42));
    EXPECT_FALSE(set.erase(42));
    EXPECT_FALSE(set.contains(42));
    EXPECT_EQ(set.size(), 0u);
}

TEST(RobinSet, RejectsReservedKey) { EXPECT_THROW(RobinSet{}.insert(0), Error); }

TEST(RobinSet, GrowsBeyondInitialCapacity) {
    RobinSet set(4);
    for (std::uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.insert(i));
    EXPECT_EQ(set.size(), 10000u);
    EXPECT_LE(set.load_factor(), 0.5);
    for (std::uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.contains(i));
    EXPECT_FALSE(set.contains(10001));
}

TEST(RobinSet, FuzzAgainstStdUnorderedSet) {
    // Mixed workload mirroring edge switching: ~equal parts insert, erase,
    // and lookup on a small key universe to force collisions and shifts.
    Mt19937_64 gen(7);
    RobinSet set;
    std::unordered_set<std::uint64_t> ref;
    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = 1 + uniform_below(gen, 512);
        switch (uniform_below(gen, 3)) {
        case 0:
            ASSERT_EQ(set.insert(key), ref.insert(key).second) << "op " << op;
            break;
        case 1:
            ASSERT_EQ(set.erase(key), ref.erase(key) > 0) << "op " << op;
            break;
        default:
            ASSERT_EQ(set.contains(key), ref.count(key) > 0) << "op " << op;
        }
        ASSERT_EQ(set.size(), ref.size());
    }
    std::size_t enumerated = 0;
    set.for_each([&](std::uint64_t k) {
        ++enumerated;
        EXPECT_TRUE(ref.count(k));
    });
    EXPECT_EQ(enumerated, ref.size());
}

TEST(RobinSet, PreparedContainsMatchesPlain) {
    Mt19937_64 gen(8);
    RobinSet set(4096);
    set.reserve(4096);
    for (int i = 0; i < 2000; ++i) set.insert(1 + uniform_below(gen, 8192));
    EXPECT_FALSE(set.would_rehash_on_insert());
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = 1 + uniform_below(gen, 8192);
        const auto prepared = set.prepare(key);
        EXPECT_EQ(set.contains_prepared(prepared), set.contains(key));
    }
}

TEST(RobinSet, DuplicateInsertNeverRehashes) {
    // Fill the set right up to the growth threshold, then re-insert present
    // keys: the table must not grow (a rehash would invalidate outstanding
    // Prepared prefetch handles even though nothing was added).
    RobinSet set;
    std::uint64_t key = 0;
    while (!set.would_rehash_on_insert()) set.insert(++key);
    const std::uint64_t buckets = set.bucket_count();
    const std::uint64_t size = set.size();
    for (std::uint64_t k = 1; k <= key; ++k) {
        const auto prepared = set.prepare(k);
        EXPECT_FALSE(set.insert(k));
        // The handle prepared before the duplicate insert must stay valid.
        EXPECT_TRUE(set.contains_prepared(prepared));
    }
    EXPECT_EQ(set.bucket_count(), buckets);
    EXPECT_EQ(set.size(), size);
    // The next *novel* insert is what grows the table.
    EXPECT_TRUE(set.insert(key + 1));
    EXPECT_GT(set.bucket_count(), buckets);
}

TEST(RobinSet, ClearEmptiesTheSet) {
    RobinSet set;
    for (std::uint64_t i = 1; i <= 100; ++i) set.insert(i);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (std::uint64_t i = 1; i <= 100; ++i) EXPECT_FALSE(set.contains(i));
}

// --------------------------------------------------- concurrent edge set
//
// Every behavioral test runs against BOTH backends (locked striped-CAS and
// lock-free bounded-PSL): the backend is a pure performance knob, so any
// observable divergence is a bug.  Backend-specific mechanics (PSL bound,
// epoch reclamation) have their own tests below the fixture.

class ConcurrentEdgeSetBackends
    : public ::testing::TestWithParam<EdgeSetBackend> {
protected:
    [[nodiscard]] ConcurrentEdgeSet make_set(std::uint64_t max_live) const {
        return ConcurrentEdgeSet(max_live, GetParam());
    }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, ConcurrentEdgeSetBackends,
    ::testing::Values(EdgeSetBackend::kLocked, EdgeSetBackend::kLockFree),
    [](const ::testing::TestParamInfo<EdgeSetBackend>& info) {
        return to_string(info.param);
    });

TEST_P(ConcurrentEdgeSetBackends, SequentialSemantics) {
    auto set = make_set(1024);
    EXPECT_EQ(set.backend(), GetParam());
    EXPECT_TRUE(set.insert(5));
    EXPECT_FALSE(set.insert(5));
    EXPECT_TRUE(set.contains(5));
    EXPECT_FALSE(set.contains(6));
    EXPECT_TRUE(set.erase(5));
    EXPECT_FALSE(set.erase(5));
    EXPECT_EQ(set.size(), 0u);
}

TEST_P(ConcurrentEdgeSetBackends, RejectsOutOfDomainKeys) {
    auto set = make_set(16);
    EXPECT_THROW(set.insert(0), Error);
    EXPECT_THROW(set.insert(ConcurrentEdgeSet::kTomb), Error);
    EXPECT_THROW(set.insert(1ULL << 60), Error);
}

TEST_P(ConcurrentEdgeSetBackends, TombstoneChurnKeepsProbesBounded) {
    auto set = make_set(256);
    Mt19937_64 gen(9);
    std::unordered_set<std::uint64_t> ref;
    // Long insert/erase churn at constant live size; without tombstone
    // reclamation via rebuild this would exhaust the table.
    for (int round = 0; round < 30000; ++round) {
        const std::uint64_t key = 1 + uniform_below(gen, 1024);
        if (ref.count(key)) {
            EXPECT_TRUE(set.erase(key));
            ref.erase(key);
        } else if (ref.size() < 256) {
            EXPECT_TRUE(set.insert(key));
            ref.insert(key);
        }
        set.maybe_rebuild();
        ASSERT_EQ(set.size(), ref.size());
    }
    for (const auto key : ref) EXPECT_TRUE(set.contains(key));
}

TEST_P(ConcurrentEdgeSetBackends, ForEachEnumeratesExactlyLiveKeys) {
    auto set = make_set(64);
    std::set<std::uint64_t> expect;
    for (std::uint64_t k = 10; k < 50; ++k) {
        set.insert(k);
        if (k % 3 == 0) {
            set.erase(k);
        } else {
            expect.insert(k);
        }
    }
    std::set<std::uint64_t> got;
    set.for_each([&](std::uint64_t k) { got.insert(k); });
    EXPECT_EQ(got, expect);
}

TEST_P(ConcurrentEdgeSetBackends, SampleUniformChiSquare) {
    auto set = make_set(64);
    for (std::uint64_t k = 1; k <= 10; ++k) set.insert(k);
    Mt19937_64 gen(10);
    std::vector<int> counts(11, 0);
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i) ++counts[set.sample_uniform(gen)];
    const double expect = draws / 10.0;
    double chi2 = 0;
    for (std::uint64_t k = 1; k <= 10; ++k)
        chi2 += (counts[k] - expect) * (counts[k] - expect) / expect;
    EXPECT_LT(chi2, 27.9); // 9 dof, 99.9%
}

/// URBG wrapper counting invocations — the regression instrument for the
/// sample_uniform probe cap.
struct CountingGen {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    Mt19937_64 inner{123};
    std::uint64_t calls = 0;
    result_type operator()() {
        ++calls;
        return inner();
    }
};

TEST_P(ConcurrentEdgeSetBackends, SampleUniformBoundedWorkUnderTombstoneFlood) {
    // 255 of 256 keys erased with rebuild deliberately deferred: random
    // bucket draws hit the one live key with p = 1/1024.  The unbounded
    // rejection sampler needed ~2000 RNG calls per draw here; the capped
    // sampler must stay under kMaxSampleDraws + the fallback's one index
    // draw (with a small rejection-sampling allowance).
    auto set = make_set(256);
    for (std::uint64_t k = 1; k <= 256; ++k) ASSERT_TRUE(set.insert(k));
    for (std::uint64_t k = 1; k <= 255; ++k) ASSERT_TRUE(set.erase(k));
    ASSERT_EQ(set.size(), 1u);
    CountingGen gen;
    constexpr int kSamples = 50;
    for (int i = 0; i < kSamples; ++i) {
        EXPECT_EQ(set.sample_uniform(gen), 256u);
    }
    EXPECT_LT(gen.calls, kSamples * 200u);
}

TEST_P(ConcurrentEdgeSetBackends, ConcurrentDistinctKeyInsertsAllLand) {
    // Single-key insert_unique / erase_unique commit their own one-element
    // delta, so size() is exact after every concurrent round (callers such
    // as a mirror table checked between supersteps rely on this).
    constexpr std::uint64_t per_thread = 20000;
    for (const unsigned p : {1u, 2u, 4u}) {
        auto set = make_set(p * per_thread);
        ThreadPool pool(p);
        pool.run([&](unsigned tid) {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                EXPECT_TRUE(set.insert_unique(1 + tid * per_thread + i));
            }
        });
        EXPECT_EQ(set.size(), p * per_thread) << "P=" << p;
        for (std::uint64_t k = 1; k <= p * per_thread; ++k) ASSERT_TRUE(set.contains(k));
        pool.run([&](unsigned tid) {
            for (std::uint64_t i = 0; i < per_thread; i += 2) {
                EXPECT_TRUE(set.erase_unique(1 + tid * per_thread + i));
            }
        });
        EXPECT_EQ(set.size(), p * per_thread / 2) << "P=" << p;
        EXPECT_EQ(set.tombstones(), p * per_thread / 2) << "P=" << p;
    }
}

TEST_P(ConcurrentEdgeSetBackends, ConcurrentSameKeyInsertsNeverDuplicate) {
    // All threads hammer the same small key set with contended inserts;
    // exactly one insert per key must win per round.
    constexpr unsigned p = 4;
    auto set = make_set(512);
    ThreadPool pool(p);
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> winners{0};
        pool.run([&](unsigned) {
            for (std::uint64_t key = 1; key <= 64; ++key) {
                if (set.insert(key)) winners.fetch_add(1);
            }
        });
        EXPECT_EQ(winners.load(), 64);
        EXPECT_EQ(set.size(), 64u);
        std::atomic<int> erasers{0};
        pool.run([&](unsigned) {
            for (std::uint64_t key = 1; key <= 64; ++key) {
                if (set.erase(key)) erasers.fetch_add(1);
            }
        });
        EXPECT_EQ(erasers.load(), 64);
        EXPECT_EQ(set.size(), 0u);
        set.maybe_rebuild();
    }
}

TEST_P(ConcurrentEdgeSetBackends, TicketLockingProtocol) {
    auto set = make_set(64);
    set.insert(100);
    auto slot = set.try_lock(100, /*tid=*/0);
    ASSERT_TRUE(slot.has_value());
    // A second locker must fail while the ticket is held.
    EXPECT_FALSE(set.try_lock(100, 1).has_value());
    // The key is still visible to lock-free readers.
    EXPECT_TRUE(set.contains(100));
    set.unlock(*slot);
    auto slot2 = set.try_lock(100, 1);
    ASSERT_TRUE(slot2.has_value());
    set.erase_locked(*slot2);
    EXPECT_FALSE(set.contains(100));
    EXPECT_EQ(set.size(), 0u);
}

TEST_P(ConcurrentEdgeSetBackends, TryLockAbsentKeyFails) {
    auto set = make_set(64);
    EXPECT_FALSE(set.try_lock(7, 0).has_value());
}

TEST_P(ConcurrentEdgeSetBackends, InsertAndLockSemantics) {
    auto set = make_set(64);
    std::uint64_t slot = 0;
    EXPECT_EQ(set.try_insert_and_lock(9, 0, slot), ConcurrentEdgeSet::InsertLock::kInserted);
    // Inserted-and-locked: visible, but not lockable by others.
    EXPECT_TRUE(set.contains(9));
    std::uint64_t other = 0;
    EXPECT_EQ(set.try_insert_and_lock(9, 1, other),
              ConcurrentEdgeSet::InsertLock::kExistsLocked);
    EXPECT_FALSE(set.try_lock(9, 1).has_value());
    set.unlock(slot);
    EXPECT_EQ(set.try_insert_and_lock(9, 1, other), ConcurrentEdgeSet::InsertLock::kExists);
}

TEST_P(ConcurrentEdgeSetBackends, ConcurrentTicketContention) {
    // p threads repeatedly try to grab the ticket for one key, mutate a
    // guarded counter, and release. The counter must never tear.
    constexpr unsigned p = 4;
    auto set = make_set(64);
    set.insert(5);
    ThreadPool pool(p);
    std::uint64_t guarded = 0; // protected by the key-5 ticket
    std::atomic<std::uint64_t> acquisitions{0};
    pool.run([&](unsigned tid) {
        for (int i = 0; i < 20000;) {
            auto slot = set.try_lock(5, tid);
            if (!slot) {
                std::this_thread::yield();
                continue;
            }
            guarded += 1;
            acquisitions.fetch_add(1);
            set.unlock(*slot);
            ++i;
        }
    });
    EXPECT_EQ(guarded, acquisitions.load());
    EXPECT_EQ(guarded, 4 * 20000u);
}

TEST_P(ConcurrentEdgeSetBackends, ParallelInsertEraseChurnDistinctRanges) {
    // Each thread owns a disjoint key range and churns inserts/erases with
    // the unique API; sizes must reconcile at the end.  Rounds mirror chain
    // supersteps: the lock-free backend reclaims tombstones only through a
    // quiescent rebuild, so unbounded churn without maybe_rebuild() is
    // outside both backends' contract.
    constexpr unsigned p = 4;
    auto set = make_set(4 * 4096);
    ThreadPool pool(p);
    std::vector<std::vector<bool>> present(p, std::vector<bool>(4096, false));
    std::vector<Mt19937_64> gens;
    for (unsigned tid = 0; tid < p; ++tid) gens.emplace_back(tid);
    for (int round = 0; round < 40; ++round) {
        pool.run([&](unsigned tid) {
            auto& mine = present[tid];
            auto& gen = gens[tid];
            const std::uint64_t base = 1 + tid * 4096;
            for (int op = 0; op < 2500; ++op) {
                const std::uint64_t off = uniform_below(gen, 4096);
                if (mine[off]) {
                    ASSERT_TRUE(set.erase_unique(base + off));
                    mine[off] = false;
                } else {
                    ASSERT_TRUE(set.insert_unique(base + off));
                    mine[off] = true;
                }
            }
        });
        set.maybe_rebuild();
    }
    for (unsigned tid = 0; tid < p; ++tid) {
        const std::uint64_t base = 1 + tid * 4096;
        for (std::uint64_t off = 0; off < 4096; ++off) {
            ASSERT_EQ(set.contains(base + off), present[tid][off]);
        }
    }
}

TEST_P(ConcurrentEdgeSetBackends, MultiWriterHammer) {
    // TSan workhorse: p threads mix contended inserts, erases, lookups and
    // ticket ops over one small key universe.  The only invariant a racy
    // history must preserve: size() equals successful inserts minus
    // successful erases.  Rounds are separated by pool.run barriers so the
    // main thread can rebuild at quiescent points, like a chain superstep.
    constexpr unsigned p = 4;
    auto set = make_set(512);
    ThreadPool pool(p);
    std::atomic<std::int64_t> net{0};
    for (int round = 0; round < 40; ++round) {
        pool.run([&](unsigned tid) {
            Mt19937_64 gen(round * p + tid);
            for (int op = 0; op < 300; ++op) {
                const std::uint64_t key = 1 + uniform_below(gen, 512);
                switch (uniform_below(gen, 4)) {
                case 0:
                    if (set.insert(key)) net.fetch_add(1);
                    break;
                case 1:
                    if (set.erase(key)) net.fetch_sub(1);
                    break;
                case 2: {
                    auto slot = set.try_lock(key, tid);
                    if (slot) {
                        if (op % 2 == 0) {
                            set.erase_locked(*slot);
                            net.fetch_sub(1);
                        } else {
                            set.unlock(*slot);
                        }
                    }
                    break;
                }
                default: {
                    const bool hit = set.contains(key);
                    (void)hit;
                }
                }
            }
        });
        ASSERT_EQ(set.size(), static_cast<std::uint64_t>(net.load()))
            << "round " << round;
        set.maybe_rebuild();
    }
}

// ---------------------------------------- bulk operations over a pool

/// Distinct keys for the bulk tests (spread over the table, not clustered).
std::uint64_t bulk_key(std::uint64_t i) { return 1 + i * 7919; }

/// One phase of the bulk churn: insert or erase bulk_key(i) for i in [lo, hi).
struct BulkPhase {
    bool erase;
    std::uint64_t lo, hi;
};

/// 20000 keys in the 65536-bucket table of a set declared for 10000: the
/// rebuild threshold is 16384 tombstones.  The erase phases end where the
/// tombstone count cannot depend on the insert order (10000, then at least
/// 17000 whatever the locked backend's recycling did), so needs_rebuild()
/// is fixed there; size() is fixed after every phase.
const std::vector<BulkPhase> kBulkPhases = {
    {false, 0, 20000}, {true, 0, 10000}, {false, 20000, 25000}, {true, 10000, 22000}};
constexpr std::uint64_t kBulkDeclared = 10000;

TEST_P(ConcurrentEdgeSetBackends, ChunkedDeltasMatchSerialSingleKeyOps) {
    auto serial = make_set(kBulkDeclared);
    std::vector<std::uint64_t> serial_size;
    std::vector<bool> serial_needs;
    for (const BulkPhase& phase : kBulkPhases) {
        for (std::uint64_t i = phase.lo; i < phase.hi; ++i) {
            ASSERT_TRUE(phase.erase ? serial.erase_unique(bulk_key(i))
                                    : serial.insert_unique(bulk_key(i)));
        }
        serial_size.push_back(serial.size());
        serial_needs.push_back(serial.needs_rebuild());
    }
    ASSERT_FALSE(serial_needs[1]);
    ASSERT_TRUE(serial_needs[3]); // the churn crosses the rebuild threshold

    for (const unsigned p : {1u, 2u, 4u}) {
        auto chunked = make_set(kBulkDeclared);
        ThreadPool pool(p);
        for (std::size_t ph = 0; ph < kBulkPhases.size(); ++ph) {
            const BulkPhase& phase = kBulkPhases[ph];
            std::atomic<std::uint64_t> misses{0};
            pool.for_chunks(phase.lo, phase.hi,
                            [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                                EdgeSetDelta delta;
                                for (std::uint64_t i = lo; i < hi; ++i) {
                                    const bool ok =
                                        phase.erase ? chunked.erase_unique(bulk_key(i), delta)
                                                    : chunked.insert_unique(bulk_key(i), delta);
                                    if (!ok) misses.fetch_add(1);
                                }
                                chunked.commit(delta);
                            });
            EXPECT_EQ(misses.load(), 0u) << "P=" << p << " phase " << ph;
            EXPECT_EQ(chunked.size(), serial_size[ph]) << "P=" << p << " phase " << ph;
            if (phase.erase) {
                EXPECT_EQ(chunked.needs_rebuild(), serial_needs[ph])
                    << "P=" << p << " phase " << ph;
            }
        }
    }
}

TEST_P(ConcurrentEdgeSetBackends, ParallelRebuildKeepsLiveKeysAndDropsTombstones) {
    for (const unsigned p : {1u, 2u, 4u}) {
        auto set = make_set(kBulkDeclared);
        ThreadPool pool(p);
        for (const BulkPhase& phase : kBulkPhases) {
            for (std::uint64_t i = phase.lo; i < phase.hi; ++i) {
                ASSERT_TRUE(phase.erase ? set.erase_unique(bulk_key(i))
                                        : set.insert_unique(bulk_key(i)));
            }
        }
        ASSERT_TRUE(set.needs_rebuild());
        std::set<std::uint64_t> expect;
        for (std::uint64_t i = 22000; i < 25000; ++i) expect.insert(bulk_key(i));

        set.maybe_rebuild(pool);
        EXPECT_EQ(set.size(), expect.size()) << "P=" << p;
        EXPECT_EQ(set.tombstones(), 0u) << "P=" << p;
        EXPECT_FALSE(set.needs_rebuild()) << "P=" << p;
        std::set<std::uint64_t> got;
        set.for_each([&](std::uint64_t k) { EXPECT_TRUE(got.insert(k).second) << k; });
        EXPECT_EQ(got, expect) << "P=" << p;
        for (const std::uint64_t k : expect) ASSERT_TRUE(set.contains(k)) << "P=" << p;
        // The rebuilt table keeps working: erased keys stay gone, new ones land.
        EXPECT_FALSE(set.contains(bulk_key(0)));
        EXPECT_TRUE(set.insert_unique(bulk_key(0)));
        EXPECT_EQ(set.size(), expect.size() + 1);
    }
}

TEST_P(ConcurrentEdgeSetBackends, BulkLoadOverPoolInsertsEveryKey) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 20000; ++i) keys.push_back(bulk_key(i));
    for (const unsigned p : {1u, 2u, 4u}) {
        auto set = make_set(keys.size());
        ThreadPool pool(p);
        set.insert_unique_all(pool, keys);
        EXPECT_EQ(set.size(), keys.size()) << "P=" << p;
        EXPECT_EQ(set.tombstones(), 0u) << "P=" << p;
        for (const std::uint64_t k : keys) ASSERT_TRUE(set.contains(k)) << "P=" << p;
        EXPECT_THROW(set.insert_unique_all(pool, std::span(keys).first(1)), Error);
    }
}

// ------------------------------------------ lock-free backend mechanics

TEST(LockFreeEdgeSet, PslBoundEnforcedAndRestoredByRebuild) {
    // 80 keys whose home buckets all land in [0, 8) of a 256-bucket table:
    // placements pile past home + kMaxPsl, which must raise the probe
    // limit (keeping every key findable) and flip needs_rebuild(), and the
    // rebuild must restore the bound.
    ConcurrentEdgeSet set(64, EdgeSetBackend::kLockFree);
    ASSERT_EQ(set.bucket_count(), 256u);
    const unsigned shift = 56; // 64 - log2(256): the table's home shift
    std::vector<std::uint64_t> clustered;
    for (std::uint64_t k = 1; clustered.size() < 80; ++k) {
        if ((edge_hash(k) >> shift) < 8) clustered.push_back(k);
    }
    for (const auto k : clustered) ASSERT_TRUE(set.insert(k));

    auto* lockfree = set.lockfree_backend();
    ASSERT_NE(lockfree, nullptr);
    EXPECT_TRUE(lockfree->psl_overflowed());
    EXPECT_TRUE(set.needs_rebuild());
    EXPECT_GE(set.max_psl(), LockFreeEdgeSet::kMaxPsl);
    // Overflow mode is slow, not wrong: every key stays reachable.
    for (const auto k : clustered) ASSERT_TRUE(set.contains(k));

    set.rebuild();
    EXPECT_FALSE(lockfree->psl_overflowed());
    EXPECT_FALSE(set.needs_rebuild());
    EXPECT_EQ(set.size(), clustered.size());
    for (const auto k : clustered) ASSERT_TRUE(set.contains(k));
    // Post-rebuild placements honor the bound again (psl_max restarts at
    // the rebuild and only tracks new placements).
    ASSERT_TRUE(set.insert(1ULL << 40));
    EXPECT_LT(set.max_psl(), LockFreeEdgeSet::kMaxPsl);
}

TEST(LockFreeEdgeSet, EpochReclamationLetsGuardedReadersOutliveRebuilds) {
    // Readers hold ReadGuards across continuous table churn + rebuilds.
    // Keys 1..512 are immortal — a reader observing one missing means it
    // raced a table swap wrongly; ASan/TSan additionally catch any
    // use-after-free of a retired table.  After the readers leave, a
    // collect() must be able to free every retired table.
    ConcurrentEdgeSet set(1024, EdgeSetBackend::kLockFree);
    for (std::uint64_t k = 1; k <= 1024; ++k) ASSERT_TRUE(set.insert(k));
    auto* lockfree = set.lockfree_backend();
    ASSERT_NE(lockfree, nullptr);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&, r] {
            Mt19937_64 gen(77 + r);
            while (!stop.load(std::memory_order_relaxed)) {
                ConcurrentEdgeSet::ReadGuard guard(set);
                for (int i = 0; i < 64; ++i) {
                    const std::uint64_t key = 1 + uniform_below(gen, 512);
                    EXPECT_TRUE(set.contains(key)) << key;
                }
            }
        });
    }

    // Churn the mortal half and force a rebuild every round.
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t k = 513; k <= 1024; ++k) {
            ASSERT_TRUE(set.erase(k));
        }
        for (std::uint64_t k = 513; k <= 1024; ++k) {
            ASSERT_TRUE(set.insert(k));
        }
        set.rebuild();
    }

    stop.store(true);
    for (auto& t : readers) t.join();
    lockfree->epochs().collect();
    EXPECT_EQ(lockfree->retired_tables(), 0u);
    for (std::uint64_t k = 1; k <= 1024; ++k) ASSERT_TRUE(set.contains(k));
}

// ------------------------------------------------------ dependency table

TEST(DependencyTable, EraseRegistrationAndLookup) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    EXPECT_EQ(table.lookup_erase(42), DependencyTable::kNone);
    table.register_erase(42, 7, 0);
    EXPECT_EQ(table.lookup_erase(42), 7u);
    EXPECT_EQ(table.lookup_erase(43), DependencyTable::kNone);
}

TEST(DependencyTable, InsertMinSkipsIllegal) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    // Status changes take effect at the next round id (cache granularity).
    std::uint32_t round = 1;
    table.register_insert(99, 5, 0, 0);
    table.register_insert(99, 3, 1, 0);
    table.register_insert(99, 9, 0, 0);
    EXPECT_EQ(table.lookup_insert_min(99, status, round), 3u);
    status[3].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), 5u);
    status[5].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), 9u);
    status[9].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), DependencyTable::kNone);
    EXPECT_EQ(table.lookup_insert_min(100, status, round), DependencyTable::kNone);
}

TEST(DependencyTable, InsertMinCachePerRound) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    table.register_insert(42, 2, 0, 0);
    table.register_insert(42, 7, 0, 0);
    EXPECT_EQ(table.lookup_insert_min(42, status, 1), 2u);
    // Same round: the memoized value is served even after a transition —
    // callers re-read status[q] and treat stale minima as "wait".
    status[2].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(42, status, 1), 2u);
    // Next round: recomputed.
    EXPECT_EQ(table.lookup_insert_min(42, status, 2), 7u);
}

TEST(DependencyTable, ResetClearsPreviousSuperstep) {
    DependencyTable table(64);
    ThreadPool pool(2);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    table.begin_superstep(64, pool);
    table.register_erase(10, 1, 0);
    table.register_insert(11, 2, 0, 0);
    table.begin_superstep(64, pool);
    EXPECT_EQ(table.lookup_erase(10), DependencyTable::kNone);
    EXPECT_EQ(table.lookup_insert_min(11, status, 1), DependencyTable::kNone);
}

TEST(DependencyTable, SameKeyBothRoles) {
    // An edge can be erased by one switch and (re)inserted by others.
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);
    table.register_erase(77, 2, 0);
    table.register_insert(77, 4, 1, 0);
    EXPECT_EQ(table.lookup_erase(77), 2u);
    EXPECT_EQ(table.lookup_insert_min(77, status, 1), 4u);
}

TEST(DependencyTable, ConcurrentRegistrationIsComplete) {
    // Many threads register inserts for overlapping keys; every tuple must
    // be reachable through the per-key list.
    constexpr unsigned p = 4;
    constexpr std::uint32_t switches = 20000;
    DependencyTable table(switches);
    ThreadPool pool(p);
    table.begin_superstep(switches, pool);
    std::vector<std::atomic<SwitchStatus>> status(switches);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    // Key layout: key = 1 + (k % 97) — about 206 switches share each key.
    pool.for_chunks(0, switches, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
            table.register_insert(1 + (k % 97), static_cast<std::uint32_t>(k), 0, tid);
        }
    });
    // Minimum per key must be the smallest switch index with that residue,
    // i.e. the residue itself.
    for (std::uint64_t key = 1; key <= 97; ++key) {
        EXPECT_EQ(table.lookup_insert_min(key, status, 1), key - 1);
    }
    // Marking the minimum illegal exposes the next one (residue + 97).
    status[13].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(14, status, 2), 13u + 97u);
}

TEST(DependencyTable, ConcurrentMixedRolesStress) {
    constexpr unsigned p = 4;
    constexpr std::uint32_t switches = 50000;
    DependencyTable table(switches);
    ThreadPool pool(p);
    table.begin_superstep(switches, pool);

    // Every switch k erases key 2k+1 (unique) and inserts key 1+(k%1009).
    pool.for_chunks(0, switches, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
            table.register_erase(2 * k + 1, static_cast<std::uint32_t>(k), tid);
            table.register_insert(1 + (k % 1009), static_cast<std::uint32_t>(k), 1, tid);
        }
    });
    for (std::uint64_t k = 0; k < switches; k += 997) {
        ASSERT_EQ(table.lookup_erase(2 * k + 1), k);
    }
}

} // namespace
} // namespace gesmc
