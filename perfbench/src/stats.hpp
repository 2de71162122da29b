/// \file stats.hpp
/// \brief The benchmark's own arithmetic: percentiles, key digests, failure
/// tally, peak-RSS capture and the one-line JSON result.
///
/// Everything here is checked by `perfbench --self-test` (self_test.cpp) on
/// tiny inputs, so a wrong number in a result points at the library.
#pragma once

#include "graph/edge.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (numpy's default): q in [0, 1] maps to
/// rank q * (n - 1) of the sorted values.  0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

/// a / b, or 0 when b is 0 (a ratio with an empty base reads as "none").
[[nodiscard]] inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// FNV-1a over the keys' bytes in the given order.  Two graphs share a
/// digest of their slot-order keys iff their edge arrays match byte for
/// byte (up to hash collisions); use sorted keys for graph identity.
[[nodiscard]] std::uint64_t digest(const std::vector<gesmc::edge_key_t>& keys);

/// Counts operations and the ones that failed.  Every check of an output
/// goes through check(); a failure is never skipped, only counted and
/// described on stderr.  Each check belongs to an operation counted by
/// attempt(), and an operation stops at its first failed check, so
/// failed() never exceeds attempted().
class Tally {
public:
    void attempt(std::uint64_t n = 1) noexcept { attempted_ += n; }

    /// Records the current operation as failed unless `ok`; returns `ok`.
    bool check(bool ok, const std::string& what);

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] double failed_frac() const noexcept {
        return ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
    }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// A metric as printed: name, value, unit.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// True when every metric's value is a finite number.
[[nodiscard]] bool all_finite(const std::vector<Metric>& metrics);

/// The result line the benchmark contract asks for:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// Values are printed with 17 significant digits (all digits measured).
/// "correct" is false when an operation failed or a metric is not finite
/// (printed as 0).
[[nodiscard]] std::string result_line(const Tally& tally, const std::vector<Metric>& metrics);

} // namespace perfbench
