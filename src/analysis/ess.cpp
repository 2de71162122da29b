#include "analysis/ess.hpp"

#include "obs/metrics.hpp"
#include "util/binio.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

namespace gesmc {

namespace {

/// Sidecar preamble: same "GESA" family as the embedded autocorrelation
/// section, tag 'E' (estimator), its own version byte.
constexpr char kEssMagic[4] = {'G', 'E', 'S', 'A'};
constexpr char kEssTag = 'E';
constexpr int kEssVersion = 1;

/// All analysis.ess.* metrics.  Counters count verdict evaluations and
/// fired stops; the gauges expose the latest estimates in fixed-point
/// milli units (gauges are integers).
struct EssMetrics {
    obs::Counter& checks =
        obs::MetricsRegistry::instance().counter("analysis.ess.checks");
    obs::Counter& stops =
        obs::MetricsRegistry::instance().counter("analysis.ess.stops");
    obs::Gauge& ess_milli =
        obs::MetricsRegistry::instance().gauge("analysis.ess.last_milli");
    obs::Gauge& tau_milli =
        obs::MetricsRegistry::instance().gauge("analysis.ess.tau_milli");
    obs::Gauge& frac_milli = obs::MetricsRegistry::instance().gauge(
        "analysis.ess.non_independent_milli");
};

EssMetrics& ess_metrics() {
    static EssMetrics& m = *new EssMetrics();
    return m;
}

std::int64_t to_milli(double v) {
    if (!std::isfinite(v)) return 0;
    return static_cast<std::int64_t>(v * 1000.0);
}

} // namespace

bool operator==(const AdaptiveStopConfig& a, const AdaptiveStopConfig& b) {
    return a.ess_target == b.ess_target && a.mixing_tau == b.mixing_tau &&
           a.min_supersteps == b.min_supersteps &&
           a.max_supersteps == b.max_supersteps && a.check_every == b.check_every &&
           a.confirm_window == b.confirm_window;
}

// ---------------------------------------------------- ScalarAutocorrelation

void ScalarAutocorrelation::add(double x) noexcept {
    if (n_ == 0) {
        first_ = x;
    } else {
        cross_ += x * last_;
    }
    sum_ += x;
    sumsq_ += x * x;
    last_ = x;
    ++n_;
}

double ScalarAutocorrelation::rho() const noexcept {
    if (n_ < 3) return 0.0;
    const double n = static_cast<double>(n_);
    const double mean = sum_ / n;
    const double denom = sumsq_ - n * mean * mean;
    // Constant (or numerically constant) series: no lag information.
    if (denom <= 1e-12 * std::max(1.0, sumsq_)) return 0.0;
    // sum_{t>=2} (x_t - mean)(x_{t-1} - mean), expanded so one pass over
    // the stream suffices: cross_ minus the mean-corrections of the two
    // (n-1)-term marginal sums.
    const double num = cross_ - mean * (sum_ - first_) - mean * (sum_ - last_) +
                       (n - 1.0) * mean * mean;
    return std::clamp(num / denom, -0.999, 0.999);
}

double ScalarAutocorrelation::tau() const noexcept {
    const double r = rho();
    return std::max(1.0, (1.0 + r) / (1.0 - r));
}

double ScalarAutocorrelation::ess() const noexcept {
    if (n_ < 3) return 0.0;
    const double n = static_cast<double>(n_);
    const double mean = sum_ / n;
    const double denom = sumsq_ - n * mean * mean;
    // A constant series is one effective observation, not n independent
    // ones — without this, a frozen chain would look perfectly mixed.
    if (denom <= 1e-12 * std::max(1.0, sumsq_)) return 1.0;
    return n / tau();
}

void ScalarAutocorrelation::save(std::ostream& os) const {
    binio::write_varint(os, n_);
    binio::write_double_le(os, sum_);
    binio::write_double_le(os, sumsq_);
    binio::write_double_le(os, cross_);
    binio::write_double_le(os, first_);
    binio::write_double_le(os, last_);
}

ScalarAutocorrelation ScalarAutocorrelation::restore(std::istream& is) {
    static constexpr const char* kWhat = "estimator scalar state";
    ScalarAutocorrelation out;
    out.n_ = binio::read_varint(is, kWhat);
    out.sum_ = binio::read_double_le(is, kWhat);
    out.sumsq_ = binio::read_double_le(is, kWhat);
    out.cross_ = binio::read_double_le(is, kWhat);
    out.first_ = binio::read_double_le(is, kWhat);
    out.last_ = binio::read_double_le(is, kWhat);
    return out;
}

// ----------------------------------------------------------- EssEstimator

std::uint32_t adaptive_max_thinning(std::uint64_t max_supersteps) {
    return static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(max_supersteps / 4, 1, 64));
}

EssEstimator::EssEstimator(const Chain& chain, const AdaptiveStopConfig& config,
                           std::uint32_t max_thinning)
    : config_(config),
      autocorr_(chain, default_thinning_values(max_thinning),
                ThinningAutocorrelation::Track::kInitialEdges) {
    // X_0 = |E(G_0)| anchors the overlap series at the initial graph.
    overlap_.add(static_cast<double>(autocorr_.initial_overlap()));
}

EssEstimator::EssEstimator(const AdaptiveStopConfig& config,
                           ThinningAutocorrelation autocorr)
    : config_(config), autocorr_(std::move(autocorr)) {}

void EssEstimator::observe(const Chain& chain) {
    // The tracker's one membership pass also yields X_t.
    overlap_.add(static_cast<double>(autocorr_.observe(chain)));
    const std::uint64_t s = autocorr_.supersteps();
    if (stopped()) return;
    if (s >= config_.min_supersteps && config_.check_every > 0 &&
        s % config_.check_every == 0) {
        check(s);
    }
}

std::optional<std::size_t> EssEstimator::deepest_evaluable(std::uint64_t s) const {
    const std::vector<std::uint32_t>& thinning = autocorr_.thinning();
    for (std::size_t i = thinning.size(); i-- > 0;) {
        // One transition lands per retained observation (prev is seeded at
        // superstep 0), so rung k has floor(s / k) transitions at step s.
        if (s / thinning[i] >= 3) return i;
    }
    return std::nullopt;
}

double EssEstimator::non_independent_fraction() const {
    const std::optional<std::size_t> ki = deepest_evaluable(autocorr_.supersteps());
    if (!ki.has_value()) return 1.0;
    return autocorr_.non_independent_fraction(*ki);
}

void EssEstimator::check(std::uint64_t s) {
    const double ess_now = overlap_.ess();
    const std::optional<std::size_t> ki = deepest_evaluable(s);
    const double frac =
        ki.has_value() ? autocorr_.non_independent_fraction(*ki) : 1.0;
    const bool pass = ess_now >= config_.ess_target && frac <= config_.mixing_tau;
    streak_ = pass ? streak_ + 1 : 0;
    if (pass && streak_ >= config_.confirm_window) stop_superstep_ = s;
    if (obs::metrics_enabled()) {
        EssMetrics& m = ess_metrics();
        m.checks.add(1);
        m.ess_milli.set(to_milli(ess_now));
        m.tau_milli.set(to_milli(overlap_.tau()));
        m.frac_milli.set(to_milli(frac));
        if (stop_superstep_.has_value() && *stop_superstep_ == s) m.stops.add(1);
    }
}

void EssEstimator::save(std::ostream& os) const {
    os.write(kEssMagic, sizeof(kEssMagic));
    os.put(kEssTag);
    os.put(static_cast<char>(kEssVersion));
    // Config echo: a sidecar is only valid against the knobs it was
    // recorded under (restore() enforces the match).
    binio::write_double_le(os, config_.ess_target);
    binio::write_double_le(os, config_.mixing_tau);
    binio::write_varint(os, config_.min_supersteps);
    binio::write_varint(os, config_.max_supersteps);
    binio::write_varint(os, config_.check_every);
    binio::write_varint(os, config_.confirm_window);
    binio::write_varint(os, streak_);
    binio::write_varint(os, stop_superstep_.has_value() ? 1 : 0);
    if (stop_superstep_.has_value()) binio::write_varint(os, *stop_superstep_);
    overlap_.save(os);
    autocorr_.save(os);
    GESMC_CHECK(os.good(), "estimator state write failed");
}

EssEstimator EssEstimator::restore(std::istream& is,
                                   const AdaptiveStopConfig& config) {
    static constexpr const char* kWhat = "estimator state";
    char preamble[6] = {};
    is.read(preamble, sizeof(preamble));
    GESMC_CHECK(is.gcount() == sizeof(preamble) &&
                    std::memcmp(preamble, kEssMagic, 4) == 0 &&
                    preamble[4] == kEssTag,
                "not a serialized estimator state");
    GESMC_CHECK(preamble[5] == kEssVersion, "unsupported estimator state version");
    AdaptiveStopConfig echoed;
    echoed.ess_target = binio::read_double_le(is, kWhat);
    echoed.mixing_tau = binio::read_double_le(is, kWhat);
    echoed.min_supersteps = binio::read_varint(is, kWhat);
    echoed.max_supersteps = binio::read_varint(is, kWhat);
    echoed.check_every = binio::read_varint(is, kWhat);
    const std::uint64_t confirm = binio::read_varint(is, kWhat);
    GESMC_CHECK(confirm <= UINT32_MAX, "estimator state: bad confirm window");
    echoed.confirm_window = static_cast<std::uint32_t>(confirm);
    GESMC_CHECK(echoed == config,
                "estimator state was recorded under a different adaptive config");
    const std::uint64_t streak = binio::read_varint(is, kWhat);
    GESMC_CHECK(streak <= UINT32_MAX, "estimator state: bad streak");
    const std::uint64_t has_stop = binio::read_varint(is, kWhat);
    GESMC_CHECK(has_stop <= 1, "estimator state: bad stop flag");
    std::optional<std::uint64_t> stop;
    if (has_stop == 1) stop = binio::read_varint(is, kWhat);
    ScalarAutocorrelation overlap = ScalarAutocorrelation::restore(is);
    ThinningAutocorrelation autocorr = ThinningAutocorrelation::restore(is);
    GESMC_CHECK(autocorr.thinning() ==
                    default_thinning_values(adaptive_max_thinning(config.max_supersteps)),
                "estimator state was recorded on a different thinning ladder");
    EssEstimator out(config, std::move(autocorr));
    out.streak_ = static_cast<std::uint32_t>(streak);
    out.stop_superstep_ = stop;
    out.overlap_ = overlap;
    return out;
}

} // namespace gesmc
