#pragma once

/// \file trace.hpp
/// In-memory span recording for the traced run, and a `net::Transport`
/// decorator that records one span per transport call.
///
/// Spans are kept in memory while the run executes and written once, as
/// Chrome trace-event JSON (chrome://tracing, Perfetto), when it ends.
/// Each span may name a parent; a span's self time is its duration minus
/// the time its children cover.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// Trace "threads": one lane per party plus one for the layer probe.
enum Lane : int { kServerLane = 0, kClientLane = 1, kProbeLane = 2 };

struct Span {
    std::string name;
    std::string category;  ///< the repo module the span measures: pi, mpc, fss, net, nn
    int lane = kServerLane;
    double start_s = 0;  ///< since the recorder was created
    double dur_s = 0;
    std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
    const char* phase = "";    ///< protocol phase of a transport call
    std::uint64_t bytes = 0;
    double blocked_s = 0;  ///< time the call spent blocked on the peer or link
};

class SpanRecorder {
public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /// Seconds since the recorder was created.
    [[nodiscard]] double now() const;
    /// Open a span starting now; returns its index for end() and as a
    /// parent for nested spans.
    std::int64_t begin(std::string name, std::string category, int lane,
                       std::int64_t parent = -1);
    /// Close a span opened with begin().
    void end(std::int64_t id);
    /// Record a finished span.
    std::int64_t add(Span span);

    [[nodiscard]] std::vector<Span> spans() const;
    /// Per span: duration minus the summed durations of its children.
    [[nodiscard]] std::vector<double> self_times() const;
    /// Chrome trace-event JSON ("X" complete events, microseconds).
    void write_chrome_trace(const std::string& path) const;

private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* recorder, std::string name, std::string category, int lane,
               std::int64_t parent = -1)
        : recorder_(recorder),
          id_(recorder != nullptr
                  ? recorder->begin(std::move(name), std::move(category), lane, parent)
                  : -1) {}
    ~ScopedSpan() {
        if (recorder_ != nullptr) recorder_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::int64_t id() const { return id_; }

private:
    SpanRecorder* recorder_;
    std::int64_t id_;
};

/// Transport decorator: forwards every virtual to `inner` (syncing the
/// protocol phase first, as the protocol sets it on this object) and
/// records one span per call under the current parent span.
class RecordingTransport final : public c2pi::net::Transport {
public:
    RecordingTransport(c2pi::net::Transport& inner, SpanRecorder& recorder, int lane)
        : Transport(inner.party_id()), inner_(&inner), recorder_(&recorder), lane_(lane) {}

    /// Spans recorded from now on are children of `span`.
    void set_parent(std::int64_t span) { parent_ = span; }

    void send_bytes(std::span<const std::uint8_t> data) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override;
    void recv_bytes_into(std::vector<std::uint8_t>& out) override;
    [[nodiscard]] c2pi::net::ChannelStats stats() const override { return inner_->stats(); }
    [[nodiscard]] c2pi::net::WaitStats wait_stats() const override {
        return inner_->wait_stats();
    }
    void set_pipelined_sends(bool enabled) override { inner_->set_pipelined_sends(enabled); }
    void flush_sends() override;
    void abort_connection() noexcept override { inner_->abort_connection(); }
    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override;
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override;

private:
    struct Call {
        double start_s;
        double wait0_s;
    };
    /// Sync the phase and note the start of one forwarded call.
    Call start_call();
    /// Record the span of a call that moved `bytes` in `phase`.
    void finish_call(const Call& call, const char* name, c2pi::net::Phase phase,
                     std::uint64_t bytes);

    c2pi::net::Transport* inner_;
    SpanRecorder* recorder_;
    int lane_;
    std::int64_t parent_ = -1;
};

}  // namespace perfbench
