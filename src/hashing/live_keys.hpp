/// \file live_keys.hpp
/// \brief Parallel gather of a table's live keys, shared by both
/// ConcurrentEdgeSet backends' rebuilds.
#pragma once

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

#include <cstdint>
#include <vector>

namespace gesmc {

/// The `live` live keys of a table with `buckets` buckets, in bucket order,
/// gathered over `pool` into one buffer of exactly `live` keys.
/// peek(idx) returns the key in bucket idx, or 0 for an empty bucket or a
/// tombstone; take(idx) does the same and may also clear the bucket.  With
/// more than one chunk, each chunk first counts its live keys with peek to
/// find its offset in the buffer; a single chunk's offset is 0, so it skips
/// that pass.  Checks that the table holds exactly `live` keys.
/// NOT thread-safe against writers: call at a quiescent point.
template <typename Peek, typename Take>
[[nodiscard]] std::vector<std::uint64_t> gather_live_keys(ThreadPool& pool,
                                                          std::uint64_t buckets,
                                                          std::uint64_t live, const Peek& peek,
                                                          const Take& take) {
    std::vector<std::uint64_t> offset(pool.num_threads() + 1, 0);
    if (pool.num_threads() == 1) {
        offset[1] = live;
    } else {
        pool.for_chunks(0, buckets, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t count = 0;
            for (std::uint64_t idx = lo; idx < hi; ++idx) count += peek(idx) != 0 ? 1 : 0;
            offset[tid + 1] = count;
        });
        for (std::size_t t = 1; t < offset.size(); ++t) offset[t] += offset[t - 1];
    }
    GESMC_CHECK(offset.back() == live, "edge-set live count disagrees with its table");
    std::vector<std::uint64_t> keys(live);
    std::vector<std::uint64_t> end(offset.begin(), offset.end() - 1); // a chunk's next slot
    pool.for_chunks(0, buckets, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t out = offset[tid];
        for (std::uint64_t idx = lo; idx < hi; ++idx) {
            const std::uint64_t key = take(idx);
            if (key == 0) continue;
            if (out < offset[tid + 1]) keys[out] = key;
            ++out;
        }
        end[tid] = out;
    });
    for (std::size_t t = 0; t < end.size(); ++t) {
        GESMC_CHECK(end[t] == offset[t + 1], "edge-set live count disagrees with its table");
    }
    return keys;
}

} // namespace gesmc
