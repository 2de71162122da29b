#include "analysis/autocorrelation.hpp"

#include "obs/metrics.hpp"
#include "util/binio.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

namespace gesmc {

namespace {

/// Preamble of the serialized observer: shared magic with the estimator
/// sidecar family ("GESA" = gesmc analysis), section tag 'T' (thinning),
/// version byte.  Bump the version on any layout change.
constexpr char kAutocorrMagic[4] = {'G', 'E', 'S', 'A'};
constexpr char kAutocorrTag = 'T';
constexpr int kAutocorrVersion = 1;

void publish_bytes_gauge(std::size_t bytes) {
    if (!obs::metrics_enabled()) return;
    static obs::Gauge& g =
        obs::MetricsRegistry::instance().gauge("analysis.autocorr.bytes");
    g.set(static_cast<std::int64_t>(bytes));
}

} // namespace

std::vector<std::uint32_t> default_thinning_values(std::uint32_t max_k) {
    // Smooth ladder of small-divisor values: 1, 2, 3, 4, 6, 8, 12, 16, ...
    std::vector<std::uint32_t> t{1, 2, 3};
    for (std::uint32_t base = 4; base <= max_k; base *= 2) {
        t.push_back(base);
        if (base + base / 2 <= max_k) t.push_back(base + base / 2);
    }
    std::vector<std::uint32_t> out;
    for (const auto k : t)
        if (k <= max_k) out.push_back(k);
    return out;
}

ThinningAutocorrelation::ThinningAutocorrelation(const Chain& chain,
                                                 std::vector<std::uint32_t> thinning,
                                                 Track track)
    : thinning_(std::move(thinning)) {
    GESMC_CHECK(!thinning_.empty(), "need at least one thinning value");
    const EdgeList& g = chain.graph();
    if (track == Track::kInitialEdges) {
        tracked_ = g.keys();
    } else {
        GESMC_CHECK(g.num_nodes() <= 2048, "all-pairs tracking needs small n");
        for (node_t u = 0; u < g.num_nodes(); ++u) {
            for (node_t v = u + 1; v < g.num_nodes(); ++v) {
                tracked_.push_back(edge_key(u, v));
            }
        }
    }
    // Superstep-0 states seed `first` and every rung's `prev`.
    probe(chain);
    first_ = present_;
    // The dominant allocation: a dense |thinning| x |tracked| matrix (see
    // the header note).  One allocation, no incremental growth.
    cells_.resize(thinning_.size() * tracked_.size());
    for (std::size_t ki = 0; ki < thinning_.size(); ++ki) {
        Cell* row = cells_.data() + ki * tracked_.size();
        for (std::size_t e = 0; e < tracked_.size(); ++e) row[e].n10_prev = first_[e];
    }
    publish_bytes_gauge(memory_bytes());
}

std::size_t ThinningAutocorrelation::probe(const Chain& chain) {
    present_.resize(tracked_.size());
    std::size_t present = 0;
    for (std::size_t e = 0; e < tracked_.size(); ++e) {
        present_[e] = chain.has_edge(tracked_[e]) ? 1 : 0;
        present += present_[e];
    }
    return present;
}

std::size_t ThinningAutocorrelation::initial_overlap() const noexcept {
    return static_cast<std::size_t>(std::count(first_.begin(), first_.end(), 1));
}

std::size_t ThinningAutocorrelation::memory_bytes() const noexcept {
    return cells_.capacity() * sizeof(Cell) + first_.capacity() + present_.capacity() +
           tracked_.capacity() * sizeof(edge_key_t) +
           thinning_.capacity() * sizeof(std::uint32_t);
}

void ThinningAutocorrelation::cell_counts(const Cell& c, std::size_t e,
                                          std::uint64_t transitions,
                                          std::uint32_t counts[2][2]) const {
    const std::uint32_t prev = c.n10_prev & 1u;
    const std::uint32_t n10 = c.n10_prev >> 1;
    const std::uint32_t n01 = n10 + prev - first_[e];
    counts[0][0] = static_cast<std::uint32_t>(transitions - c.n11 - n10 - n01);
    counts[0][1] = n01;
    counts[1][0] = n10;
    counts[1][1] = c.n11;
}

void ThinningAutocorrelation::save(std::ostream& os) const {
    os.write(kAutocorrMagic, sizeof(kAutocorrMagic));
    os.put(kAutocorrTag);
    os.put(static_cast<char>(kAutocorrVersion));
    binio::write_varint(os, thinning_.size());
    for (const std::uint32_t k : thinning_) binio::write_varint(os, k);
    binio::write_varint(os, tracked_.size());
    for (const edge_key_t key : tracked_) binio::write_varint(os, key);
    binio::write_varint(os, step_);
    // The version-1 layout: all four counts and prev per cell, rung-major.
    for (std::size_t ki = 0; ki < thinning_.size(); ++ki) {
        const Cell* row = cells_.data() + ki * tracked_.size();
        const std::uint64_t transitions = step_ / thinning_[ki];
        for (std::size_t e = 0; e < tracked_.size(); ++e) {
            std::uint32_t n[2][2];
            cell_counts(row[e], e, transitions, n);
            binio::write_varint(os, n[0][0]);
            binio::write_varint(os, n[0][1]);
            binio::write_varint(os, n[1][0]);
            binio::write_varint(os, n[1][1]);
            os.put(static_cast<char>(row[e].n10_prev & 1u));
        }
    }
    GESMC_CHECK(os.good(), "autocorrelation state write failed");
}

ThinningAutocorrelation ThinningAutocorrelation::restore(std::istream& is) {
    static constexpr const char* kWhat = "autocorrelation state";
    static constexpr const char* kBrokenIdentity =
        "autocorrelation state: counts break the transition identity";
    char preamble[6] = {};
    is.read(preamble, sizeof(preamble));
    GESMC_CHECK(is.gcount() == sizeof(preamble) &&
                    std::memcmp(preamble, kAutocorrMagic, 4) == 0 &&
                    preamble[4] == kAutocorrTag,
                "not a serialized autocorrelation state");
    GESMC_CHECK(preamble[5] == kAutocorrVersion,
                "unsupported autocorrelation state version");
    ThinningAutocorrelation out;
    const std::uint64_t nk = binio::read_varint(is, kWhat);
    GESMC_CHECK(nk >= 1 && nk <= 4096, "autocorrelation state: bad thinning count");
    out.thinning_.reserve(nk);
    for (std::uint64_t i = 0; i < nk; ++i) {
        const std::uint64_t k = binio::read_varint(is, kWhat);
        GESMC_CHECK(k >= 1 && k <= UINT32_MAX,
                    "autocorrelation state: bad thinning value");
        out.thinning_.push_back(static_cast<std::uint32_t>(k));
    }
    const std::uint64_t ne = binio::read_varint(is, kWhat);
    // Same distrust of header counts as graph/io: cap the upfront reserve
    // so a corrupt length fails as "truncated", not as a huge allocation.
    out.tracked_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(ne, 1u << 20)));
    for (std::uint64_t i = 0; i < ne; ++i) {
        out.tracked_.push_back(binio::read_varint(is, kWhat));
    }
    out.step_ = binio::read_varint(is, kWhat);
    out.first_.resize(out.tracked_.size());
    out.present_.resize(out.tracked_.size());
    out.cells_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nk * ne, 1u << 22)));
    for (std::uint64_t ki = 0; ki < nk; ++ki) {
        const std::uint64_t transitions = out.step_ / out.thinning_[ki];
        for (std::uint64_t e = 0; e < ne; ++e) {
            std::uint64_t n[2][2];
            for (int a = 0; a < 2; ++a) {
                for (int b = 0; b < 2; ++b) {
                    n[a][b] = binio::read_varint(is, kWhat);
                    GESMC_CHECK(n[a][b] <= UINT32_MAX,
                                "autocorrelation state: count overflow");
                }
            }
            const int prev = is.get();
            GESMC_CHECK(prev == 0 || prev == 1, "autocorrelation state: bad prev bit");
            // The identities of Cell: the first rung fixes the edge's
            // superstep-0 state, every rung must agree with it, and each
            // rung holds exactly floor(step / k) transitions.
            if (ki == 0) {
                const std::int64_t first = prev + static_cast<std::int64_t>(n[1][0]) -
                                           static_cast<std::int64_t>(n[0][1]);
                GESMC_CHECK(first == 0 || first == 1, kBrokenIdentity);
                out.first_[e] = static_cast<std::uint8_t>(first);
            }
            GESMC_CHECK(n[0][1] + out.first_[e] ==
                                n[1][0] + static_cast<std::uint64_t>(prev) &&
                            n[0][0] + n[0][1] + n[1][0] + n[1][1] == transitions &&
                            n[1][0] < (1u << 31),
                        kBrokenIdentity);
            Cell c;
            c.n11 = static_cast<std::uint32_t>(n[1][1]);
            c.n10_prev = static_cast<std::uint32_t>(n[1][0] << 1) |
                         static_cast<std::uint32_t>(prev);
            out.cells_.push_back(c);
        }
    }
    publish_bytes_gauge(out.memory_bytes());
    return out;
}

std::size_t ThinningAutocorrelation::observe(const Chain& chain) {
    ++step_;
    const std::size_t present = probe(chain);
    for (std::size_t ki = 0; ki < thinning_.size(); ++ki) {
        if (step_ % thinning_[ki] != 0) continue;
        Cell* row = cells_.data() + ki * tracked_.size();
        for (std::size_t e = 0; e < tracked_.size(); ++e) {
            const std::uint32_t cur = present_[e];
            const std::uint32_t prev = row[e].n10_prev & 1u;
            row[e].n11 += prev & cur;
            row[e].n10_prev = ((row[e].n10_prev & ~1u) + ((prev & ~cur) << 1)) | cur;
        }
    }
    return present;
}

double g2_statistic(const std::uint32_t counts[2][2]) {
    const double n00 = counts[0][0], n01 = counts[0][1];
    const double n10 = counts[1][0], n11 = counts[1][1];
    const double total = n00 + n01 + n10 + n11;
    if (total == 0) return 0.0;
    const double row0 = n00 + n01, row1 = n10 + n11;
    const double col0 = n00 + n10, col1 = n01 + n11;
    auto term = [total](double nij, double rowi, double colj) {
        if (nij == 0 || rowi == 0 || colj == 0) return 0.0;
        return nij * std::log(nij * total / (rowi * colj));
    };
    return 2.0 * (term(n00, row0, col0) + term(n01, row0, col1) + term(n10, row1, col0) +
                  term(n11, row1, col1));
}

bool bic_prefers_independent(const std::uint32_t counts[2][2]) {
    const double total = static_cast<double>(counts[0][0]) + counts[0][1] + counts[1][0] +
                         counts[1][1];
    if (total < 2) return false; // not enough evidence either way
    // The Markov model has one extra parameter; BIC penalty ln(N).
    return g2_statistic(counts) <= std::log(total);
}

double ThinningAutocorrelation::non_independent_fraction(std::size_t ki) const {
    GESMC_CHECK(ki < thinning_.size(), "thinning index out of range");
    if (tracked_.empty()) return 0.0;
    const Cell* row = cells_.data() + ki * tracked_.size();
    const std::uint64_t transitions = step_ / thinning_[ki];
    // Every cell of the rung holds the same number of transitions, so its
    // verdict is a function of (n11, n10, prev, first) alone: memoise it
    // in a dense table over counts below `side` (all of them at the
    // shallow transition counts the stopping rule reads), evaluating any
    // other tuple directly.
    const std::uint64_t side = std::min<std::uint64_t>(transitions + 1, 128);
    std::vector<std::uint8_t> memo(side * side * 4, 0); // 0 = not yet, 1 = indep., 2 = not
    std::size_t dependent = 0;
    for (std::size_t e = 0; e < tracked_.size(); ++e) {
        const std::uint64_t n11 = row[e].n11;
        const std::uint64_t n10 = row[e].n10_prev >> 1;
        const bool memoised = n11 < side && n10 < side;
        const std::size_t slot = memoised ? (((n11 * side + n10) << 2) |
                                             ((row[e].n10_prev & 1u) << 1) | first_[e])
                                          : 0;
        std::uint8_t verdict = memoised ? memo[slot] : 0;
        if (verdict == 0) {
            std::uint32_t n[2][2];
            cell_counts(row[e], e, transitions, n);
            verdict = bic_prefers_independent(n) ? 1 : 2;
            if (memoised) memo[slot] = verdict;
        }
        if (verdict == 2) ++dependent;
    }
    return static_cast<double>(dependent) / static_cast<double>(tracked_.size());
}

std::vector<double> ThinningAutocorrelation::non_independent_fractions() const {
    std::vector<double> out(thinning_.size());
    for (std::size_t ki = 0; ki < thinning_.size(); ++ki) {
        out[ki] = non_independent_fraction(ki);
    }
    return out;
}

} // namespace gesmc
