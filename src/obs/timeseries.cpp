#include "obs/timeseries.hpp"

#include "pipeline/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace gesmc::obs {

namespace {

std::uint64_t now_unix_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/// Cumulative value of `name` in a snapshot's counter list (0 if absent —
/// a counter registered between two samples has an implicit previous of 0).
std::uint64_t counter_at(const MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [n, v] : snap.counters) {
        if (n == name) return v;
    }
    return 0;
}

const HistogramSnapshot* histogram_at(const MetricsSnapshot& snap,
                                      const std::string& name) {
    for (const HistogramSnapshot& h : snap.histograms) {
        if (h.name == name) return &h;
    }
    return nullptr;
}

void write_tick_fields(JsonWriter& w, const TelemetryTick& tick) {
    w.kv("seq", tick.sequence);
    w.kv("ts_ms", tick.ts_ms);
    w.kv("interval_s", tick.interval_s);
    w.key("executor");
    write_executor_json(w, tick.executor);
    w.key("rates");
    w.begin_object();
    for (const auto& [name, rate] : tick.counter_rates) w.kv(name, rate);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, total] : tick.counter_totals) w.kv(name, total);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : tick.gauges) {
        // JsonWriter has no signed overload; negative gauges (analysis
        // z-scores, assortativity fixed-point) take the double path, which
        // is exact far beyond any gauge magnitude here.
        if (value >= 0) {
            w.kv(name, static_cast<std::uint64_t>(value));
        } else {
            w.kv(name, static_cast<double>(value));
        }
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const TelemetryTick::HistogramWindow& h : tick.histograms) {
        w.key(h.name);
        w.begin_object();
        w.kv("count", h.count);
        w.kv("rate", h.rate);
        w.kv("p50", h.p50);
        w.kv("p90", h.p90);
        w.kv("p99", h.p99);
        w.kv("max", h.max);
        w.end_object();
    }
    w.end_object();
}

/// JsonWriter pretty-prints; a telemetry row must be a single line (NDJSON,
/// one `watch` frame per line when piped).  Every string value is
/// JSON-escaped — no literal newline survives inside one — so a newline and
/// the indentation after it are always formatting, safe to strip.
std::string collapse_to_one_line(const std::string& pretty) {
    std::string out;
    out.reserve(pretty.size());
    for (std::size_t i = 0; i < pretty.size(); ++i) {
        if (pretty[i] != '\n') {
            out.push_back(pretty[i]);
            continue;
        }
        while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
    }
    return out;
}

/// Prometheus metric names admit [a-zA-Z0-9_:] only; the registry's
/// dot-separated names map '.' (and any other byte) to '_'.
std::string prometheus_name(const std::string& name) {
    std::string out = "gesmc_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void append_double(std::string& out, double value) {
    char buf[64];
    if (std::isfinite(value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
        std::snprintf(buf, sizeof(buf), "NaN");
    }
    out += buf;
}

} // namespace

std::vector<std::pair<std::string, std::uint64_t>> executor_fields(const ExecutorStats& e) {
    return {{"threads", e.threads},
            {"leased", e.leased},
            {"lease_waiters", e.lease_waiters},
            {"active_runs", e.active_runs},
            {"pending_replicates", e.pending_replicates},
            {"inflight_replicates", e.inflight_replicates}};
}

void write_executor_json(JsonWriter& w, const ExecutorStats& e) {
    w.begin_object();
    for (const auto& [name, value] : executor_fields(e)) w.kv(name, value);
    w.end_object();
}

// ---------------------------------------------------------- rate math

TelemetryTick diff_snapshots(const MetricsSnapshot& previous,
                             const MetricsSnapshot& current,
                             double interval_s) {
    TelemetryTick tick;
    tick.interval_s = interval_s;
    const bool rateable = interval_s > 0.0;

    tick.counter_totals = current.counters;
    tick.counter_rates.reserve(current.counters.size());
    for (const auto& [name, total] : current.counters) {
        const std::uint64_t before = counter_at(previous, name);
        // A reset() between samples makes total < before; clamp to zero
        // rather than emit a negative rate.
        const std::uint64_t delta = total >= before ? total - before : 0;
        tick.counter_rates.emplace_back(
            name, rateable ? static_cast<double>(delta) / interval_s : 0.0);
    }

    tick.gauges = current.gauges;

    tick.histograms.reserve(current.histograms.size());
    for (const HistogramSnapshot& h : current.histograms) {
        const HistogramSnapshot* prev = histogram_at(previous, h.name);
        // The interval's activity as a histogram of its own: subtract the
        // previous cumulative bucket counts, then reuse the shared
        // quantile interpolation on the difference.
        HistogramSnapshot window;
        window.name = h.name;
        window.max = h.max;
        const std::uint64_t prev_count = prev != nullptr ? prev->count : 0;
        window.count = h.count >= prev_count ? h.count - prev_count : 0;
        for (const HistogramSnapshot::Bucket& b : h.buckets) {
            std::uint64_t before = 0;
            if (prev != nullptr) {
                for (const HistogramSnapshot::Bucket& pb : prev->buckets) {
                    if (pb.upper_bound == b.upper_bound) {
                        before = pb.count;
                        break;
                    }
                }
            }
            if (b.count > before) {
                window.buckets.push_back({b.upper_bound, b.count - before});
            }
        }
        TelemetryTick::HistogramWindow out;
        out.name = h.name;
        out.count = window.count;
        out.rate = rateable ? static_cast<double>(window.count) / interval_s : 0.0;
        out.p50 = histogram_quantile(window, 0.50);
        out.p90 = histogram_quantile(window, 0.90);
        out.p99 = histogram_quantile(window, 0.99);
        out.max = h.max;
        tick.histograms.push_back(std::move(out));
    }
    return tick;
}

// ---------------------------------------------------------------- emitters

std::string telemetry_tick_ndjson(const TelemetryTick& tick) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    write_tick_fields(w, tick);
    w.end_object();
    return collapse_to_one_line(os.str());
}

std::string telemetry_tick_frame_body(const TelemetryTick& tick) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("event", "telemetry");
    write_tick_fields(w, tick);
    w.end_object();
    return collapse_to_one_line(os.str());
}

void write_metrics_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
    std::string out;
    out.reserve(4096);
    for (const auto& [name, value] : snapshot.counters) {
        const std::string prom = prometheus_name(name);
        out += "# HELP " + prom + " gesmc counter " + name + "\n";
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string prom = prometheus_name(name);
        out += "# HELP " + prom + " gesmc gauge " + name + "\n";
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const HistogramSnapshot& h : snapshot.histograms) {
        const std::string prom = prometheus_name(h.name);
        out += "# HELP " + prom + " gesmc histogram " + h.name + "\n";
        out += "# TYPE " + prom + " summary\n";
        const struct {
            const char* label;
            double value;
        } quantiles[] = {{"0.5", h.p50}, {"0.9", h.p90}, {"0.99", h.p99}};
        for (const auto& q : quantiles) {
            out += prom + "{quantile=\"" + q.label + "\"} ";
            append_double(out, h.count > 0 ? q.value : 0.0);
            out += "\n";
        }
        out += prom + "_sum " + std::to_string(h.sum) + "\n";
        out += prom + "_count " + std::to_string(h.count) + "\n";
    }
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

// ----------------------------------------------------------------- sampler

TelemetrySampler::TelemetrySampler(TelemetrySamplerConfig config)
    : config_(std::move(config)) {
    CheckedLockGuard lock(mutex_);
    ring_.reserve(std::max<std::size_t>(config_.ring_capacity, 1));
    if (!config_.ndjson_path.empty()) {
        ndjson_.open(config_.ndjson_path, std::ios::trunc);
        ndjson_open_ = ndjson_.good();
    }
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
    {
        CheckedLockGuard lock(mutex_);
        if (running_) return;
        running_ = true;
        stop_requested_ = false;
    }
    // Baseline snapshot so the first interval has a meaningful delta.
    const MetricsSnapshot baseline = MetricsRegistry::instance().snapshot();
    const auto now = std::chrono::steady_clock::now();
    {
        CheckedLockGuard lock(mutex_);
        previous_ = baseline;
        previous_time_ = now;
        has_baseline_ = true;
    }
    thread_ = std::thread([this] { sampler_loop(); });
}

void TelemetrySampler::stop() {
    bool join = false;
    {
        CheckedLockGuard lock(mutex_);
        stop_requested_ = true;
        join = running_;
        running_ = false;
    }
    tick_cv_.notify_all();
    if (join && thread_.joinable()) thread_.join();
}

void TelemetrySampler::sampler_loop() {
    for (;;) {
        {
            CheckedUniqueLock lock(mutex_);
            const bool stopping = tick_cv_.wait_for(
                lock, config_.interval, [this] {
                    mutex_.assert_held();
                    return stop_requested_;
                });
            if (stopping) return;
        }
        (void)sample_now();
    }
}

TelemetryTick TelemetrySampler::sample_now() {
    // Both snapshots are taken with no sampler lock held: the registry
    // snapshot locks rank 0 and the executor source may lock the job
    // manager (rank 70), both incompatible with holding rank 8 here.
    MetricsSnapshot current = MetricsRegistry::instance().snapshot();
    const ExecutorStats exec =
        config_.executor_stats ? config_.executor_stats() : ExecutorStats{};
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t ts_ms = now_unix_ms();

    TelemetryTick tick;
    {
        CheckedLockGuard lock(mutex_);
        double interval_s = 0.0;
        if (has_baseline_) {
            interval_s =
                std::chrono::duration<double>(now - previous_time_).count();
        }
        tick = diff_snapshots(has_baseline_ ? previous_ : current, current,
                              interval_s);
        tick.sequence = next_sequence_++;
        tick.ts_ms = ts_ms;
        tick.executor = exec;
        previous_ = std::move(current);
        previous_time_ = now;
        has_baseline_ = true;

        const std::size_t capacity = std::max<std::size_t>(config_.ring_capacity, 1);
        if (ring_.size() < capacity) {
            ring_.push_back(tick);
        } else {
            ring_[static_cast<std::size_t>((tick.sequence - 1) % capacity)] = tick;
        }
        if (ndjson_open_) {
            const std::string row = telemetry_tick_ndjson(tick);
            ndjson_.write(row.data(), static_cast<std::streamsize>(row.size()));
            ndjson_.put('\n');
            ndjson_.flush();  // one complete row per tick for tail -f
        }
    }
    tick_cv_.notify_all();
    return tick;
}

std::optional<TelemetryTick> TelemetrySampler::latest() const {
    CheckedLockGuard lock(mutex_);
    if (next_sequence_ == 1) return std::nullopt;
    const std::uint64_t seq = next_sequence_ - 1;
    const std::size_t capacity = std::max<std::size_t>(config_.ring_capacity, 1);
    return ring_[static_cast<std::size_t>((seq - 1) % capacity)];
}

std::vector<TelemetryTick> TelemetrySampler::since(
    std::uint64_t after_sequence) const {
    CheckedLockGuard lock(mutex_);
    std::vector<TelemetryTick> out;
    if (next_sequence_ == 1) return out;
    const std::uint64_t newest = next_sequence_ - 1;
    const std::uint64_t oldest = newest >= ring_.size()
                                     ? newest - ring_.size() + 1
                                     : 1;
    const std::size_t capacity = std::max<std::size_t>(config_.ring_capacity, 1);
    for (std::uint64_t seq = std::max(after_sequence + 1, oldest); seq <= newest;
         ++seq) {
        out.push_back(ring_[static_cast<std::size_t>((seq - 1) % capacity)]);
    }
    return out;
}

std::optional<TelemetryTick> TelemetrySampler::wait_for_tick(
    std::uint64_t after_sequence, std::chrono::milliseconds timeout) {
    CheckedUniqueLock lock(mutex_);
    const bool ready = tick_cv_.wait_for(lock, timeout, [this, after_sequence] {
        mutex_.assert_held();
        return stop_requested_ || next_sequence_ > after_sequence + 1;
    });
    if (!ready || stop_requested_) return std::nullopt;
    const std::uint64_t newest = next_sequence_ - 1;
    const std::uint64_t oldest =
        newest >= ring_.size() ? newest - ring_.size() + 1 : 1;
    const std::uint64_t seq = std::max(after_sequence + 1, oldest);
    const std::size_t capacity = std::max<std::size_t>(config_.ring_capacity, 1);
    return ring_[static_cast<std::size_t>((seq - 1) % capacity)];
}

std::uint64_t TelemetrySampler::ticks() const {
    CheckedLockGuard lock(mutex_);
    return next_sequence_ - 1;
}

bool TelemetrySampler::ndjson_ok() const {
    CheckedLockGuard lock(mutex_);
    return config_.ndjson_path.empty() || ndjson_open_;
}

} // namespace gesmc::obs
