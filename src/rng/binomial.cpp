#include "rng/binomial.hpp"

#include "util/check.hpp"

#include <cmath>

namespace gesmc::detail {

namespace {

/// ln|Gamma(x)| without std::lgamma's write to the global `signgam`,
/// which races when replicates sample concurrently.
double lgamma_threadsafe(double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

/// log(n choose k) via lgamma.
double log_choose(double n, double k) {
    return lgamma_threadsafe(n + 1) - lgamma_threadsafe(k + 1) - lgamma_threadsafe(n - k + 1);
}

} // namespace

/// Counts successes by jumping between success positions with geometric
/// gaps: if each trial succeeds with probability p, the gap to the next
/// success is Geom(p). Exact; expected O(np) iterations.
std::uint64_t binomial_small_np(double (*next_unit)(void*), void* gen, std::uint64_t n, double p) {
    if (p <= 0 || n == 0) return 0;
    const double log_q = std::log1p(-p);
    std::uint64_t count = 0;
    double pos = 0;
    for (;;) {
        const double gap = std::floor(std::log(next_unit(gen)) / log_q);
        pos += gap + 1;
        if (pos > static_cast<double>(n)) return count;
        ++count;
    }
}

/// Inversion by CDF search that starts at the mode and sweeps outward,
/// alternating right/left. Probabilities follow the exact recurrence
///   pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/q.
/// A single uniform U is consumed; expected work O(sqrt(npq)).
std::uint64_t binomial_inversion_mode(double (*next_unit)(void*), void* gen, std::uint64_t n,
                                      double p) {
    const double q = 1 - p;
    const double nd = static_cast<double>(n);
    const auto mode = static_cast<std::uint64_t>(std::min(nd, std::floor((nd + 1) * p)));
    const double log_pmf_mode = log_choose(nd, static_cast<double>(mode)) +
                                static_cast<double>(mode) * std::log(p) +
                                (nd - static_cast<double>(mode)) * std::log(q);
    const double pmf_mode = std::exp(log_pmf_mode);

    double u = next_unit(gen);

    // Sweep outward from the mode; subtract each visited pmf from u.
    const double ratio = p / q;
    double pmf_right = pmf_mode; // pmf at `right`
    double pmf_left = pmf_mode;  // pmf at `left`
    std::uint64_t right = mode;
    std::uint64_t left = mode;

    u -= pmf_mode;
    if (u <= 0) return mode;
    for (;;) {
        bool advanced = false;
        if (right < n) {
            pmf_right *= (nd - static_cast<double>(right)) / (static_cast<double>(right) + 1) *
                         ratio;
            ++right;
            u -= pmf_right;
            if (u <= 0) return right;
            advanced = true;
        }
        if (left > 0) {
            pmf_left *= static_cast<double>(left) / ((nd - static_cast<double>(left) + 1) * ratio);
            --left;
            u -= pmf_left;
            if (u <= 0) return left;
            advanced = true;
        }
        // Floating-point tail: all mass visited but u > 0 due to rounding.
        if (!advanced || (pmf_right < 1e-300 && pmf_left < 1e-300)) return mode;
    }
}

std::uint64_t sample_binomial_impl(double (*next_unit)(void*), void* gen, std::uint64_t n,
                                   double p) {
    GESMC_CHECK(p >= 0 && p <= 1, "binomial probability out of range");
    if (n == 0 || p <= 0) return 0;
    if (p >= 1) return n;
    if (p > 0.5) return n - sample_binomial_impl(next_unit, gen, n, 1 - p);

    const double np = static_cast<double>(n) * p;
    if (np < 16.0) return binomial_small_np(next_unit, gen, n, p);
    return binomial_inversion_mode(next_unit, gen, n, p);
}

} // namespace gesmc::detail
