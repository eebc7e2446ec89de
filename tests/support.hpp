#pragma once

// Fixtures shared by the session-level test suites: the demo model (from
// the deployment demo, re-exported here), one tiny model for suites that
// run many sessions, a transport decorator that records every sent
// payload, and the PiStats equality the parity suites assert.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "net/transport.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "pi/session.hpp"

#include "../examples/remote_common.hpp"

namespace c2pi::test {

/// Smallest model with real conv/ReLU/FC coverage and a crypto-clear
/// boundary: the chaos and pipelining matrices run many sessions, so each
/// must be cheap even under TSan.
inline nn::Graph make_tiny_model(std::uint64_t seed = 3) {
    Rng rng(seed);
    nn::Graph m;
    m.emplace<nn::Conv2d>(3, 2, ops::ConvSpec{.kernel = 3, .stride = 2, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Flatten>();
    m.emplace<nn::Linear>(2 * 4 * 4, 8, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Linear>(8, 4, rng);
    return m;
}

inline pi::CompiledModel::Options tiny_options(bool full_pi) {
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 8, 8};
    opts.he_ring_degree = 1024;
    if (!full_pi) opts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    return opts;
}

inline Tensor tiny_input(std::uint64_t seed = 100) {
    Rng rng(seed);
    return Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
}

/// Transport decorator that records every sent payload verbatim and
/// forwards the pipelined-send controls (over an InProcTransport they
/// are no-ops, so recording stays on the protocol thread and is
/// race-free even with pipelining on). FSS key batches are protocol
/// traffic and are recorded like any other payload; artifact shipping
/// is setup and is not.
class RecordingTransport final : public net::Transport {
public:
    RecordingTransport(net::Transport& inner, std::vector<std::vector<std::uint8_t>>& sent)
        : Transport(inner.party_id()), inner_(&inner), sent_(&sent) {}

    void send_bytes(std::span<const std::uint8_t> data) override {
        sent_->emplace_back(data.begin(), data.end());
        inner_->set_phase(phase_);
        inner_->send_bytes(data);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override { return inner_->recv_bytes(); }
    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        inner_->recv_bytes_into(out);
    }
    [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }
    [[nodiscard]] net::WaitStats wait_stats() const override { return inner_->wait_stats(); }
    void set_pipelined_sends(bool enabled) override { inner_->set_pipelined_sends(enabled); }
    void flush_sends() override { inner_->flush_sends(); }

    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->send_artifact_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        return inner_->recv_artifact_bytes();
    }
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        sent_->emplace_back(bytes.begin(), bytes.end());
        inner_->send_keys_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        return inner_->recv_keys_bytes();
    }

private:
    net::Transport* inner_;
    std::vector<std::vector<std::uint8_t>>* sent_;
};

inline void expect_pi_stats_equal(const pi::PiStats& a, const pi::PiStats& b, const char* what) {
    EXPECT_EQ(a.offline_bytes, b.offline_bytes) << what;
    EXPECT_EQ(a.online_bytes, b.online_bytes) << what;
    EXPECT_EQ(a.offline_flights, b.offline_flights) << what;
    EXPECT_EQ(a.online_flights, b.online_flights) << what;
}

}  // namespace c2pi::test
