#include "pi/serving_pool.hpp"

#include <algorithm>

#include "core/stopwatch.hpp"

namespace c2pi::pi {

namespace {

/// Validate every option at the API boundary, then resolve the worker
/// count (0 = auto, like CompiledModel::Options::num_threads).
int validated_workers(const ServingPool::Options& o) {
    require(o.workers >= 0 && o.workers <= core::kMaxThreads,
            "ServingPool workers must lie in [0, 1024] (0 = auto)");
    require(o.queue_capacity >= 0, "ServingPool queue_capacity must be >= 0");
    require(o.recv_timeout_ms >= 0, "ServingPool recv_timeout_ms must be >= 0");
    require(o.handshake_timeout_ms >= 0,
            "ServingPool handshake_timeout_ms must be >= 0 (0 disables the short deadline)");
    require(o.tail_window_ms >= 0, "ServingPool tail_window_ms must be >= 0");
    return core::resolve_thread_count(o.workers);
}

}  // namespace

const char* failure_class_name(FailureClass c) {
    switch (c) {
        case FailureClass::kClientAbort: return "client-abort";
        case FailureClass::kProtocolViolation: return "protocol-violation";
        case FailureClass::kTimeout: return "timeout";
        case FailureClass::kInternal: return "internal";
    }
    return "internal";
}

FailureClass classify_failure(const std::exception& e) {
    // Order matters: the typed transport failures derive c2pi::Error, so
    // they must be tested before the generic Error bucket.
    if (dynamic_cast<const net::RecvTimeout*>(&e) != nullptr) return FailureClass::kTimeout;
    if (dynamic_cast<const net::PeerClosed*>(&e) != nullptr) return FailureClass::kClientAbort;
    if (dynamic_cast<const Error*>(&e) != nullptr) return FailureClass::kProtocolViolation;
    return FailureClass::kInternal;
}

ServingPool::ServingPool(const CompiledModel& model, SessionConfig config, Options options,
                         std::function<void(const SessionReport&)> on_session)
    : model_(&model),
      session_(model, config),
      artifact_bytes_(model.artifact().serialize()),
      artifact_digest_(digest_of(artifact_bytes_)),
      options_(options),
      on_session_(std::move(on_session)),
      queue_(validated_workers(options), options.queue_capacity) {
    if (options.tail_window_ms > 0 && !model.full_pi()) {
        // At most `workers` sessions can be at the boundary at once, so a
        // group of that size closes with zero extra wait.
        batcher_ = std::make_unique<TailBatcher>(
            model, static_cast<std::size_t>(workers()),
            std::chrono::milliseconds(options.tail_window_ms));
    }
}

ServingPool::~ServingPool() { drain(); }

bool ServingPool::serve(std::unique_ptr<net::TcpTransport> transport) {
    require(transport != nullptr, "ServingPool::serve needs a connected transport");
    // shared_ptr: std::function requires a copyable callable.
    std::shared_ptr<net::TcpTransport> shared(std::move(transport));
    std::uint64_t index = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        index = ++stats_.accepted;
    }
    // The report is delivered in the queue's `then` step, after the
    // session's admission slot is freed.
    auto report = std::make_shared<SessionReport>();
    const bool admitted = queue_.try_submit(
        [this, shared, index, report] { *report = serve_one(*shared, index); },
        [this, report] {
            if (!on_session_) return;
            // Serialized on its own mutex so one slow observer (stdout)
            // never blocks a stats() reader.
            const std::lock_guard<std::mutex> lock(report_mutex_);
            on_session_(*report);
        });
    if (!admitted) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.rejected;
        }
        // Typed refusal, then an immediate goodbye: the client's pending
        // recv raises net::ServerBusy instead of a protocol error.
        // close_now (no drain) because serve() runs on the accept loop —
        // a slow or hostile peer must not stall admission; the drain is
        // safe to skip here since the peer has sent nothing past the
        // handshake we already consumed.
        try {
            shared->send_busy();
        } catch (...) {  // peer already gone; nothing to refuse
        }
        shared->close_now();
    }
    return admitted;
}

ServingPool::SessionReport ServingPool::serve_one(net::TcpTransport& transport,
                                                  std::uint64_t index) noexcept {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.active;
        stats_.concurrent_peak = std::max(stats_.concurrent_peak, stats_.active);
    }
    SessionReport report;
    report.index = index;
    Stopwatch watch;
    try {
        transport.set_recv_timeout(options_.recv_timeout_ms);
        // Bootstrap-phase laggards (connected-then-silent, died after the
        // handshake) are shed on the short deadline; the transport
        // promotes to the steady timeout at the first DATA frame.
        if (options_.handshake_timeout_ms > 0)
            transport.arm_handshake_deadline(options_.handshake_timeout_ms);
        report.artifact_from_cache =
            ship_artifact(transport, artifact_bytes_, artifact_digest_);
        if (batcher_ != nullptr) {
            session_.run(transport,
                         [this](const Tensor& act) { return batcher_->run(act); });
        } else {
            session_.run(transport);
        }
        report.stats = stats_from_transport(transport);
        report.stats.wall_seconds = watch.seconds();
        report.ok = true;
    } catch (const std::exception& e) {
        report.ok = false;
        report.error = e.what();
        report.failure = classify_failure(e);
    } catch (...) {
        report.ok = false;
        report.error = "unknown error";
        report.failure = FailureClass::kInternal;
    }
    transport.close();  // noexcept; idempotent
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        --stats_.active;
        if (report.artifact_from_cache) ++stats_.artifact_skips;
        if (report.ok) {
            ++stats_.served;
            stats_.traffic.offline_bytes += report.stats.offline_bytes;
            stats_.traffic.online_bytes += report.stats.online_bytes;
            stats_.traffic.preprocess_bytes += report.stats.preprocess_bytes;
            stats_.traffic.offline_flights += report.stats.offline_flights;
            stats_.traffic.online_flights += report.stats.online_flights;
            stats_.traffic.preprocess_flights += report.stats.preprocess_flights;
            stats_.traffic.wall_seconds += report.stats.wall_seconds;
            stats_.traffic.offline_wait_seconds += report.stats.offline_wait_seconds;
            stats_.traffic.online_wait_seconds += report.stats.online_wait_seconds;
            stats_.traffic.preprocess_wait_seconds += report.stats.preprocess_wait_seconds;
        } else {
            ++stats_.failed;
            ++stats_.failed_by_class[static_cast<int>(report.failure)];
        }
    }
    return report;
}

void ServingPool::drain() { queue_.drain(); }

ServingPool::Stats ServingPool::stats() const {
    Stats snapshot;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        snapshot = stats_;
    }
    if (batcher_ != nullptr) {
        snapshot.tail_batches = batcher_->batches();
        snapshot.tail_requests = batcher_->requests();
    }
    return snapshot;
}

}  // namespace c2pi::pi
