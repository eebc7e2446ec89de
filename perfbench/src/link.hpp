#pragma once

/// \file link.hpp
/// Userspace link emulator: a delay-line TCP relay that gives every
/// connection through it the bandwidth and round-trip time of a
/// `net::NetworkModel`, applied to the real bytes the two parties send.
///
/// Each accepted connection is relayed to a target port on loopback.
/// Per direction, bytes are paced at the model's bandwidth (a byte leaves
/// the sender's end of the link once every earlier byte has been
/// serialized) and delivered one one-way latency (RTT/2) after they
/// finished serializing. No traffic shaping privileges are needed: the
/// delay line lives in this process. The relay buffers at most one
/// bandwidth-delay product plus 10 ms of link time per direction before
/// it stops reading, so a sender that outruns the link is pushed back by
/// TCP flow control as it would be by a real link.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "net/cost_model.hpp"

namespace perfbench {

class LinkEmulator {
public:
    /// Cumulative counters over every connection relayed so far.
    struct Counters {
        std::uint64_t bytes = 0;  ///< payload bytes that crossed the link
        double busy_seconds = 0;  ///< time spent serializing those bytes
    };

    /// Listens on an ephemeral loopback port and relays each connection
    /// to `127.0.0.1:target_port`. `compensation_seconds` is the relay's
    /// own forwarding round trip (see self_check); it is taken off the
    /// model RTT so that endpoints see the model's round trip.
    LinkEmulator(c2pi::net::NetworkModel model, std::uint16_t target_port,
                 double compensation_seconds = 0);
    /// Closes the listener, tears every relayed connection down and joins
    /// all relay threads.
    ~LinkEmulator();

    LinkEmulator(const LinkEmulator&) = delete;
    LinkEmulator& operator=(const LinkEmulator&) = delete;

    /// Port clients connect to instead of the target.
    [[nodiscard]] std::uint16_t port() const { return port_; }
    /// Relay connections accepted from now on to another target port.
    void retarget(std::uint16_t target_port) { target_port_ = target_port; }
    [[nodiscard]] Counters counters() const;

    struct Pipe;
    struct Connection;

private:
    void accept_loop();
    void reap(bool all);

    c2pi::net::NetworkModel model_;
    std::chrono::steady_clock::duration one_way_;
    std::atomic<std::uint16_t> target_port_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> busy_ns_{0};
    std::mutex connections_mutex_;
    std::list<std::unique_ptr<Connection>> connections_;
    std::thread acceptor_;
};

/// Result of `self_check`: what the emulator delivered, against the model.
struct LinkCheck {
    int attempts = 0;                 ///< measurements made until one was in bound
    double compensation_seconds = 0;  ///< relay forwarding round trip, measured
    double rtt_seconds = 0;           ///< median ping-pong round trip
    double bandwidth_bytes_per_s = 0;  ///< bulk transfer goodput
    bool ok = false;
};

/// Ping-pong and bulk-transfer probe through fresh emulators over a local
/// echo peer. It measures how far the relay's own forwarding overshoots
/// the model RTT, then checks an emulator compensated by that much: the
/// median round trip and the bulk goodput must each be within `tolerance`
/// (a fraction) of the model. A measurement out of bound is repeated, up
/// to five times, since a single one can catch a burst of scheduler
/// noise. Emulators for the workload take `compensation_seconds` from the
/// result.
[[nodiscard]] LinkCheck self_check(const c2pi::net::NetworkModel& model, double tolerance);

}  // namespace perfbench
