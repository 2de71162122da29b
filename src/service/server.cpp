#include "service/server.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "pipeline/config.hpp"
#include "util/check.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace gesmc {

namespace {

std::string json_event_frame(const std::string& body) {
    return encode_frame(FrameType::kJson, body);
}

std::string json_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void append_job_info_json(std::string& out, const JobInfo& info) {
    out += "{\"job\": " + std::to_string(info.id);
    out += ", \"status\": " + json_quote(to_string(info.status));
    out += ", \"algorithm\": " + json_quote(info.algorithm);
    out += ", \"replicates\": " + std::to_string(info.replicates);
    out += ", \"replicates_done\": " + std::to_string(info.replicates_done);
    if (info.seconds > 0) {
        out += ", \"seconds\": " + json_double(info.seconds);
        out += ", \"switches_per_second\": " + json_double(info.switches_per_second);
    }
    if (info.adaptive) {
        out += ", \"adaptive\": true";
        out += ", \"realized_supersteps\": " + std::to_string(info.realized_supersteps);
    }
    if (!info.output_dir.empty()) {
        out += ", \"output_dir\": " + json_quote(info.output_dir);
    }
    if (!info.error.empty()) out += ", \"error\": " + json_quote(info.error);
    out += "}";
}

/// Bytes/frames on the daemon->client direction, summed over connections.
struct WireCounters {
    obs::Counter& frames =
        obs::MetricsRegistry::instance().counter("service.frames.sent");
    obs::Counter& bytes =
        obs::MetricsRegistry::instance().counter("service.bytes.sent");
};

WireCounters& wire_counters() {
    static WireCounters& c = *new WireCounters();
    return c;
}

/// The daemon's `metrics` response: executor load, per-status job counts,
/// per-job throughput rows, and the full registry snapshot.
std::string metrics_event_body(const ServiceStats& stats) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("event", "metrics");

    w.key("executor");
    obs::write_executor_json(w, stats.executor);

    w.key("jobs");
    w.begin_object();
    w.kv("queued", stats.jobs_queued);
    w.kv("running", stats.jobs_running);
    w.kv("succeeded", stats.jobs_succeeded);
    w.kv("failed", stats.jobs_failed);
    w.kv("cancelled", stats.jobs_cancelled);
    w.kv("interrupted", stats.jobs_interrupted);
    w.end_object();

    w.key("per_job");
    w.begin_array();
    for (const JobInfo& info : stats.jobs) {
        w.begin_object();
        w.kv("job", info.id);
        w.kv("status", to_string(info.status));
        w.kv("algorithm", info.algorithm);
        w.kv("replicates", info.replicates);
        w.kv("replicates_done", info.replicates_done);
        w.kv("seconds", info.seconds);
        w.kv("attempted_switches", info.attempted_switches);
        w.kv("switches_per_second", info.switches_per_second);
        if (info.adaptive) {
            w.kv("adaptive", true);
            w.kv("realized_supersteps", info.realized_supersteps);
        }
        w.end_object();
    }
    w.end_array();

    w.key("registry");
    obs::write_metrics_json(w, obs::MetricsRegistry::instance().snapshot());

    w.end_object();
    return os.str();
}

} // namespace

// --------------------------------------------------------- SocketObserver

SocketObserver::SocketObserver(int fd, std::uint64_t job_id,
                               std::function<void()> on_broken,
                               std::uint64_t chunk_bytes)
    : fd_(fd), job_id_(job_id), on_broken_(std::move(on_broken)),
      chunk_bytes_(std::min<std::uint64_t>(std::max<std::uint64_t>(chunk_bytes, 1),
                                           kGraphChunkBytes)) {}

bool SocketObserver::send_frame_locked(FrameType type, std::string_view payload) {
    if (broken()) return false;
    try {
        const std::string encoded = encode_frame(type, payload);
        write_all(fd_, encoded);
        if (obs::metrics_enabled()) {
            WireCounters& c = wire_counters();
            c.frames.add(1);
            c.bytes.add(encoded.size());
        }
        return true;
    } catch (const std::exception&) {
        // Client gone: stop streaming for good.  Never rethrow — these
        // sends run inside pipeline pool threads.
        broken_.store(true, std::memory_order_relaxed);
        return false;
    }
}

void SocketObserver::send_frame(const std::string& encoded) {
    if (broken()) return;
    bool just_broke = false;
    {
        CheckedLockGuard lock(mutex_);
        if (broken()) return;
        try {
            write_all(fd_, encoded);
            if (obs::metrics_enabled()) {
                WireCounters& c = wire_counters();
                c.frames.add(1);
                c.bytes.add(encoded.size());
            }
        } catch (const std::exception&) {
            broken_.store(true, std::memory_order_relaxed);
            just_broke = true;
        }
    }
    if (just_broke && on_broken_ != nullptr) on_broken_();
}

void SocketObserver::send_graph(std::uint64_t replicate, const std::string& path) {
    if (broken()) return;
    GraphFrame header;
    header.replicate = replicate;
    header.name = std::filesystem::path(path).filename().string();
    // Copy-loop streaming: never more than one chunk of the file in memory,
    // whatever the replicate's size.  The file is ours (the replicate wrote
    // and closed it before on_replicate_done fired), so its size is stable;
    // a short read mid-transfer is still treated as file trouble.
    std::ifstream is(path, std::ios::binary);
    GESMC_CHECK(is.good(), "cannot open replicate output: " + path);
    header.total_bytes = std::filesystem::file_size(path);

    bool just_broke = false;
    std::exception_ptr file_error;
    {
        CheckedLockGuard lock(mutex_);
        if (broken()) return;
        // One mutex hold for the whole transfer: a concurrently finishing
        // replicate must not interleave its frames into this one's chunks.
        if (!send_frame_locked(FrameType::kGraph, encode_graph_payload(header))) {
            just_broke = true;
        } else {
            try {
                std::string chunk(static_cast<std::size_t>(chunk_bytes_), '\0');
                std::uint64_t left = header.total_bytes;
                while (left > 0) {
                    const std::uint64_t want =
                        std::min<std::uint64_t>(left, chunk_bytes_);
                    is.read(chunk.data(), static_cast<std::streamsize>(want));
                    GESMC_CHECK(static_cast<std::uint64_t>(is.gcount()) == want,
                                "replicate output truncated mid-stream: " + path);
                    if (!send_frame_locked(
                            FrameType::kGraphData,
                            std::string_view(chunk.data(),
                                             static_cast<std::size_t>(want)))) {
                        just_broke = true;
                        break;
                    }
                    left -= want;
                }
            } catch (...) {
                // File trouble *after* the header went out: the wire now
                // announces more bytes than were sent, so the stream is
                // unrecoverable — any later frame would be read as part of
                // this transfer.  Break it for good (the client sees EOF,
                // on_broken cancels the job) and let the file error
                // propagate to the caller's reporting path.
                broken_.store(true, std::memory_order_relaxed);
                just_broke = true;
                file_error = std::current_exception();
            }
        }
    }
    if (just_broke && on_broken_ != nullptr) on_broken_();
    if (file_error != nullptr) std::rethrow_exception(file_error);
}

void SocketObserver::on_superstep(std::uint64_t replicate, const Chain& chain) {
    send_frame(json_event_frame(
        "{\"event\": \"superstep\", \"job\": " + std::to_string(job_id_) +
        ", \"replicate\": " + std::to_string(replicate) +
        ", \"superstep\": " + std::to_string(chain.stats().supersteps) + "}"));
}

void SocketObserver::on_checkpoint(std::uint64_t replicate, const ChainState& state,
                                   const std::string& path) {
    send_frame(json_event_frame(
        "{\"event\": \"checkpoint\", \"job\": " + std::to_string(job_id_) +
        ", \"replicate\": " + std::to_string(replicate) +
        ", \"superstep\": " + std::to_string(state.stats.supersteps) +
        ", \"path\": " + json_quote(path) + "}"));
}

void SocketObserver::on_replicate_done(const ReplicateReport& report) {
    // Report fragment first, then the graph bytes: a client that stops
    // after the fragment still knows the replicate's outcome.
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("event", "replicate");
    w.kv("job", job_id_);
    w.key("report");
    write_replicate_json(w, report);
    w.end_object();
    send_frame(json_event_frame(os.str()));

    if (report.error.empty() && !report.output_path.empty()) {
        try {
            send_graph(report.index, report.output_path);
        } catch (const std::exception& e) {
            send_frame(json_event_frame(
                "{\"event\": \"error\", \"message\": " +
                json_quote(std::string("graph stream failed: ") + e.what()) + "}"));
        }
    }
}

// ---------------------------------------------------------- ServiceServer

namespace {

/// The daemon's sampler configuration: registry + executor occupancy at the
/// configured tick, optionally mirrored to an NDJSON file.
obs::TelemetrySamplerConfig sampler_config(const ServerConfig& config,
                                           JobManager& manager) {
    obs::TelemetrySamplerConfig out;
    out.interval = config.telemetry_interval;
    out.ndjson_path = config.telemetry_out;
    out.executor_stats = [&manager] { return manager.stats().executor; };
    return out;
}

} // namespace

ServiceServer::ServiceServer(const ServerConfig& config)
    : config_(config), manager_(config.threads, std::max(1u, config.max_jobs)),
      sampler_(sampler_config(config_, manager_)) {
    GESMC_CHECK(!config_.socket_path.empty(), "service: socket path is required");
    listen_fd_ = listen_unix(config_.socket_path);
    int pipe_fds[2];
    GESMC_CHECK(::pipe(pipe_fds) == 0,
                std::string("pipe: ") + std::strerror(errno));
    wake_read_ = FdHandle(pipe_fds[0]);
    wake_write_ = FdHandle(pipe_fds[1]);
    // Non-blocking on both ends: serve() drains the pipe without stalling,
    // and a wake() against a full pipe may simply drop its byte — a full
    // pipe already guarantees a pending wakeup.
    for (const int fd : pipe_fds) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        GESMC_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                    std::string("fcntl(wake pipe): ") + std::strerror(errno));
    }
    sampler_.start();
}

ServiceServer::~ServiceServer() {
    request_stop();
    unblock_active_connections();
    reap_connections(/*join_all=*/true);
    std::error_code ec;
    std::filesystem::remove(config_.socket_path, ec);
}

void ServiceServer::reap_connections(bool join_all) {
    std::vector<std::thread> joinable;
    {
        CheckedLockGuard lock(connections_mutex_);
        if (join_all) {
            for (auto& [id, thread] : connection_threads_) {
                joinable.push_back(std::move(thread));
            }
            connection_threads_.clear();
            finished_connections_.clear();
        } else {
            // A thread can announce completion before serve() stored its
            // handle; leave such ids queued for the next sweep.
            std::vector<std::uint64_t> unresolved;
            for (const std::uint64_t id : finished_connections_) {
                auto it = connection_threads_.find(id);
                if (it == connection_threads_.end()) {
                    unresolved.push_back(id);
                    continue;
                }
                joinable.push_back(std::move(it->second));
                connection_threads_.erase(it);
            }
            finished_connections_ = std::move(unresolved);
        }
    }
    for (std::thread& thread : joinable) {
        if (thread.joinable()) thread.join();
    }
}

void ServiceServer::unblock_active_connections() {
    CheckedLockGuard lock(connections_mutex_);
    for (const auto& [id, fd] : active_fds_) ::shutdown(fd, SHUT_RD);
}

void ServiceServer::request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    wake();
}

void ServiceServer::wake() noexcept {
    // Only async-signal-safe calls here: this runs from SIGTERM handlers.
    if (wake_write_.valid()) {
        const char byte = 'w';
        [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
    }
}

void ServiceServer::serve(std::ostream* log) {
    if (log != nullptr) {
        *log << "gesmc_serve: listening on " << config_.socket_path << " ("
             << manager_.threads() << " threads, " << std::max(1u, config_.max_jobs)
             << " concurrent jobs)\n";
    }
    while (!stop_.load(std::memory_order_relaxed)) {
        reap_connections(/*join_all=*/false); // exited threads join promptly
        pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {wake_read_.get(), POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw Error(std::string("poll: ") + std::strerror(errno));
        }
        if ((fds[1].revents & POLLIN) != 0) {
            // Drain every pending wake byte (non-blocking read), then act:
            // request_stop means exit; a connection-thread wake just loops
            // so reap_connections joins the thread that announced itself.
            char drained[64];
            while (::read(wake_read_.get(), drained, sizeof(drained)) > 0) {}
            if (stop_.load(std::memory_order_relaxed)) break;
            continue;
        }
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int client = ::accept(listen_fd_.get(), nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            throw Error(std::string("accept: ") + std::strerror(errno));
        }
        // Send timeout: a client that stops *reading* while keeping the
        // socket open would otherwise block an observer's send inside a
        // pool thread forever — wedging its job, and with it drain().
        // After 10s of a full send buffer the write fails, the observer
        // marks the stream broken and the job is cancelled instead.
        const timeval send_timeout{10, 0};
        ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof(send_timeout));
        std::uint64_t id = 0;
        {
            CheckedLockGuard lock(connections_mutex_);
            id = next_connection_++;
            active_fds_.emplace(id, client);
        }
        std::thread worker([this, id, fd = FdHandle(client), log]() mutable {
            try {
                handle_connection(fd.get(), log);
            } catch (const std::exception& e) {
                if (log != nullptr) {
                    *log << "gesmc_serve: connection error: " << e.what() << "\n";
                }
            }
            // Deregister before the handle closes (the fd stays open until
            // this lambda's captures die), so a shutdown sweep can never
            // touch a recycled descriptor; then announce completion and
            // poke the accept loop so the join happens even on an
            // otherwise idle daemon.
            {
                CheckedLockGuard lock(connections_mutex_);
                active_fds_.erase(id);
                finished_connections_.push_back(id);
            }
            wake();
        });
        {
            CheckedLockGuard lock(connections_mutex_);
            connection_threads_.emplace(id, std::move(worker));
        }
    }

    if (log != nullptr) {
        *log << "gesmc_serve: draining (running jobs finish or checkpoint)\n";
    }
    GESMC_LOG_EVENT(Info, "service", "draining");
    // Order matters: drain settles jobs (submit connections wake from
    // wait() and flush their done frames), then the sampler stop wakes
    // `watch` subscribers, then the read-side shutdown frees threads parked
    // on idle control connections, then join.
    manager_.drain();
    sampler_.stop();
    unblock_active_connections();
    reap_connections(/*join_all=*/true);
    std::error_code ec;
    std::filesystem::remove(config_.socket_path, ec);
    if (log != nullptr) *log << "gesmc_serve: drained, exiting\n";
}

void ServiceServer::handle_connection(int fd, std::ostream* log) {
    std::string buffer;
    std::string line;
    if (!read_line(fd, buffer, line)) return; // client connected and left

    Request request;
    try {
        request = parse_request(line);
    } catch (const std::exception& e) {
        GESMC_LOG_EVENT(Warn, "service", "bad_request").str("error", e.what());
        write_all(fd,
                  json_event_frame("{\"event\": \"error\", \"message\": " +
                                   json_quote(e.what()) + "}"));
        return;
    }

    const obs::TraceSpan request_span(
        "request", "service",
        {{"kind", static_cast<std::uint64_t>(request.kind)}});

    switch (request.kind) {
    case RequestKind::kStatus: {
        std::string body = "{\"event\": \"status\", \"jobs\": [";
        bool first = true;
        for (const JobInfo& info : manager_.jobs()) {
            if (request.has_job && info.id != request.job) continue;
            if (!first) body += ", ";
            first = false;
            append_job_info_json(body, info);
        }
        body += "]}";
        write_all(fd, json_event_frame(body));
        return;
    }
    case RequestKind::kCancel: {
        const bool ok = manager_.cancel(request.job);
        write_all(fd, json_event_frame(
                                "{\"event\": \"cancelled\", \"job\": " +
                                std::to_string(request.job) +
                                ", \"ok\": " + (ok ? "true" : "false") + "}"));
        return;
    }
    case RequestKind::kMetrics:
        write_all(fd, json_event_frame(metrics_event_body(manager_.stats())));
        return;
    case RequestKind::kProm: {
        // The registry plus the daemon's live executor occupancy as
        // synthetic gauges — a scrape is useful even when collection is off.
        obs::MetricsSnapshot snapshot = obs::MetricsRegistry::instance().snapshot();
        for (const auto& [name, value] : obs::executor_fields(manager_.stats().executor)) {
            snapshot.gauges.emplace_back("executor." + name,
                                         static_cast<std::int64_t>(value));
        }
        std::ostringstream os;
        obs::write_metrics_prometheus(os, snapshot);
        write_all(fd, json_event_frame("{\"event\": \"prom\", \"exposition\": " +
                                       json_quote(os.str()) + "}"));
        return;
    }
    case RequestKind::kWatch:
        stream_telemetry(fd);
        return;
    case RequestKind::kShutdown:
        write_all(fd, json_event_frame("{\"event\": \"shutting-down\"}"));
        GESMC_LOG_EVENT(Info, "service", "shutdown_requested");
        request_stop();
        return;
    case RequestKind::kSubmit:
        break; // handled below
    }

    // Submit: admit the job with a socket-backed observer, then hold the
    // connection open until the job settles — the observer does the
    // streaming from pipeline threads in the meantime.
    std::optional<SocketObserver> observer;
    std::uint64_t id = 0;
    try {
        const PipelineConfig config = read_pipeline_config_string(request.config_text);
        id = manager_.submit(config, [&](std::uint64_t job_id) -> RunObserver* {
            observer.emplace(fd, job_id,
                             [this, job_id] { manager_.cancel(job_id); });
            // Inside the factory the job cannot have started yet, so
            // "accepted" is guaranteed to be the stream's first frame.  The
            // factory runs outside the manager lock with the job already
            // registered (see JobManager::submit), so this blocking send
            // stalls no other request, and if it breaks the stream the
            // on_broken cancel above lands before the job is queued.
            observer->send_frame(json_event_frame(
                "{\"event\": \"accepted\", \"job\": " + std::to_string(job_id) + "}"));
            return &*observer;
        });
    } catch (const std::exception& e) {
        write_all(fd,
                  json_event_frame("{\"event\": \"error\", \"message\": " +
                                   json_quote(e.what()) + "}"));
        return;
    }
    if (log != nullptr) {
        *log << "gesmc_serve: job " << id << " accepted\n";
    }
    GESMC_LOG_EVENT(Info, "service", "job_accepted").num("job", id);

    const JobInfo info = manager_.wait(id);
    std::string body = "{\"event\": \"done\", \"job\": " + std::to_string(id) +
                       ", \"status\": " + json_quote(to_string(info.status)) +
                       ", \"replicates\": " + std::to_string(info.replicates) +
                       ", \"replicates_done\": " + std::to_string(info.replicates_done);
    if (!info.error.empty()) body += ", \"error\": " + json_quote(info.error);
    body += "}";
    observer->send_frame(json_event_frame(body));
    if (log != nullptr) {
        *log << "gesmc_serve: job " << id << " " << to_string(info.status) << "\n";
    }
    GESMC_LOG_EVENT(Info, "service", "job_done")
        .num("job", id)
        .str("status", to_string(info.status))
        .num("replicates_done", info.replicates_done)
        .str("error", info.error);
}

void ServiceServer::stream_telemetry(int fd) {
    GESMC_LOG_EVENT(Info, "service", "watch_subscribed");
    // Start from the latest tick so a new subscriber sees data on its very
    // next tick instead of replaying the whole ring.
    std::uint64_t last = 0;
    if (const auto tick = sampler_.latest(); tick.has_value()) {
        last = tick->sequence;
        try {
            write_all(fd, json_event_frame(obs::telemetry_tick_frame_body(*tick)));
        } catch (const std::exception&) {
            return; // client gone before the first frame
        }
    }
    while (!stop_.load(std::memory_order_relaxed)) {
        // Bounded wait so daemon stop is noticed even between ticks; a
        // stopped sampler returns nullopt immediately and the stop_ check
        // ends the loop on the next pass.
        const std::optional<obs::TelemetryTick> tick =
            sampler_.wait_for_tick(last, std::chrono::milliseconds(500));
        if (!tick.has_value()) continue; // timeout (or sampler stopping —
                                         // stop_ ends the loop next pass)
        last = tick->sequence;
        try {
            write_all(fd, json_event_frame(obs::telemetry_tick_frame_body(*tick)));
            if (obs::metrics_enabled()) {
                WireCounters& c = wire_counters();
                c.frames.add(1);
            }
        } catch (const std::exception&) {
            GESMC_LOG_EVENT(Info, "service", "watch_disconnected");
            return; // client disconnected
        }
    }
}

} // namespace gesmc
