#include "link.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <vector>

#include "core/error.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

void set_nodelay(int fd) {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

/// Listening loopback socket on an ephemeral port.
int listen_ephemeral(std::uint16_t& port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    c2pi::require(fd >= 0, "link emulator: socket() failed");
    sockaddr_in addr = loopback(0);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        ::close(fd);
        c2pi::fail("link emulator: cannot listen on loopback");
    }
    port = ntohs(addr.sin_port);
    return fd;
}

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    const sockaddr_in addr = loopback(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    set_nodelay(fd);
    return fd;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool read_exact(int fd, std::uint8_t* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::recv(fd, data, size, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// A self-check measurement that scheduler noise pushed out of bound is
/// repeated, calibration included, up to this many times.
constexpr int kCheckAttempts = 5;

Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

/// One direction of a relayed connection: a reader thread timestamps and
/// paces what `src` sends, a writer thread hands it to `dst` at its
/// delivery time.
struct LinkEmulator::Pipe {
    struct Chunk {
        Clock::time_point deliver_at;
        std::vector<std::uint8_t> bytes;
        bool eof = false;
        bool reset = false;  ///< the sender's side broke rather than closed
        /// Delivered on time to within the writer's wake-up precision.
        /// Only a chunk that found the link idle needs it: within a burst
        /// the receiver waits for the burst's end, and each later chunk's
        /// delivery time is fixed by pacing, so lateness never accumulates.
        bool precise = false;
    };

    Pipe(int src_fd, int dst_fd, LinkEmulator& link) : src(src_fd), dst(dst_fd), owner(&link) {
        const auto& m = link.model_;
        // Up to ~1 ms of link time per read. A read returns what the
        // sender has written, so a small message is never held back for
        // more bytes, and a large one completes when its last byte has
        // been paced whatever the chunking; larger chunks only mean fewer
        // precise wake-ups of the writer.
        chunk_bytes = std::clamp<std::size_t>(
            static_cast<std::size_t>(m.bandwidth_bytes_per_s * 1e-3), 16 << 10, 256 << 10);
        // One bandwidth-delay product plus 10 ms of link time: enough that
        // a sender or relay thread descheduled for a few milliseconds does
        // not leave the link idle.
        cap_bytes = static_cast<std::size_t>(m.bandwidth_bytes_per_s * (m.rtt_seconds + 10e-3));
        one_way = link.one_way_;
    }

    void push(Chunk chunk) {
        std::unique_lock<std::mutex> lock(mutex);
        space_cv.wait(lock, [&] { return queued < cap_bytes || writer_gone; });
        if (writer_gone) return;
        queued += chunk.bytes.size();
        queue.push_back(std::move(chunk));
        data_cv.notify_one();
    }

    void read_loop() {
        std::vector<std::uint8_t> buf(chunk_bytes);
        const double bandwidth = owner->model_.bandwidth_bytes_per_s;
        Clock::time_point last_tx_done{};
        for (;;) {
            const ssize_t n = ::recv(src, buf.data(), buf.size(), 0);
            if (n < 0 && errno == EINTR) continue;
            const Clock::time_point now = Clock::now();
            if (n <= 0) {
                push({now + one_way, {}, true, n < 0});
                return;
            }
            const double serialize = static_cast<double>(n) / bandwidth;
            const bool idle = last_tx_done <= now;
            last_tx_done = std::max(now, last_tx_done) + to_duration(serialize);
            owner->bytes_ += static_cast<std::uint64_t>(n);
            owner->busy_ns_ += static_cast<std::uint64_t>(serialize * 1e9);
            push({last_tx_done + one_way, {buf.begin(), buf.begin() + n}, false, false, idle});
        }
    }

    void write_loop() {
        // Default timer slack (50 us) would be a third of the LAN one-way
        // latency; ask the kernel for precise wake-ups on this thread.
        (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (;;) {
            Chunk chunk;
            {
                std::unique_lock<std::mutex> lock(mutex);
                data_cv.wait(lock, [&] { return !queue.empty(); });
                chunk = std::move(queue.front());
                queue.pop_front();
                queued -= chunk.bytes.size();
            }
            space_cv.notify_one();
            if (chunk.precise) {
                sleep_precisely_until(chunk.deliver_at);
            } else {
                std::this_thread::sleep_until(chunk.deliver_at);
            }
            if (chunk.eof) {
                (void)::shutdown(dst, chunk.reset ? SHUT_RDWR : SHUT_WR);
                return;
            }
            if (!write_all(dst, chunk.bytes.data(), chunk.bytes.size())) {
                // The receiver is gone: stop accepting bytes for it and
                // unblock the reader so this direction winds down.
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    writer_gone = true;
                    queue.clear();
                    queued = 0;
                }
                space_cv.notify_all();
                (void)::shutdown(src, SHUT_RDWR);
                return;
            }
        }
    }

    /// Sleep until `t`: wake early by the running estimate of this
    /// thread's wake-up latency, then spin the rest, so a delivery is
    /// neither late by the scheduler's wake-up cost nor ever early.
    void sleep_precisely_until(Clock::time_point t) {
        const Clock::time_point target = t - to_duration(wake_latency);
        if (target > Clock::now()) {
            std::this_thread::sleep_until(target);
            const double late = std::chrono::duration<double>(Clock::now() - target).count();
            wake_latency += 0.125 * (std::min(late, 100e-6) - wake_latency);
        }
        while (Clock::now() < t) {
        }
    }

    int src;
    int dst;
    LinkEmulator* owner;
    double wake_latency = 0;  ///< EWMA of oversleep, writer thread only
    std::size_t chunk_bytes = 0;
    std::size_t cap_bytes = 0;
    Clock::duration one_way{};
    std::mutex mutex;
    std::condition_variable data_cv;
    std::condition_variable space_cv;
    std::deque<Chunk> queue;
    std::size_t queued = 0;
    bool writer_gone = false;
};

struct LinkEmulator::Connection {
    Connection(int client_fd, int server_fd, LinkEmulator& link)
        : a(client_fd), b(server_fd), up(a, b, link), down(b, a, link) {
        threads[0] = std::thread([this] { run(&Pipe::read_loop, up); });
        threads[1] = std::thread([this] { run(&Pipe::write_loop, up); });
        threads[2] = std::thread([this] { run(&Pipe::read_loop, down); });
        threads[3] = std::thread([this] { run(&Pipe::write_loop, down); });
    }
    ~Connection() {
        for (auto& t : threads) t.join();
        ::close(a);
        ::close(b);
    }

    void run(void (Pipe::*loop)(), Pipe& pipe) {
        (pipe.*loop)();
        --live;
    }
    void kill() {
        (void)::shutdown(a, SHUT_RDWR);
        (void)::shutdown(b, SHUT_RDWR);
    }

    int a;
    int b;
    Pipe up;    ///< client -> target
    Pipe down;  ///< target -> client
    std::atomic<int> live{4};
    std::thread threads[4];
};

LinkEmulator::LinkEmulator(c2pi::net::NetworkModel model, std::uint16_t target_port,
                           double compensation_seconds)
    : model_(std::move(model)),
      one_way_(to_duration(std::max(0.0, model_.rtt_seconds - compensation_seconds) / 2.0)),
      target_port_(target_port) {
    c2pi::require(model_.bandwidth_bytes_per_s > 0 && model_.rtt_seconds >= 0,
                  "link emulator: invalid network model");
    listen_fd_ = listen_ephemeral(port_);
    acceptor_ = std::thread([this] { accept_loop(); });
}

LinkEmulator::~LinkEmulator() {
    stop_ = true;
    acceptor_.join();
    ::close(listen_fd_);
    reap(/*all=*/true);
}

LinkEmulator::Counters LinkEmulator::counters() const {
    return {bytes_.load(), static_cast<double>(busy_ns_.load()) * 1e-9};
}

void LinkEmulator::accept_loop() {
    while (!stop_) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0) {
            reap(/*all=*/false);
            continue;
        }
        const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (client < 0) continue;
        set_nodelay(client);
        const int server = connect_loopback(target_port_);
        if (server < 0) {
            ::close(client);
            continue;
        }
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        connections_.push_back(std::make_unique<Connection>(client, server, *this));
    }
}

void LinkEmulator::reap(bool all) {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (all)
        for (auto& c : connections_) c->kill();
    connections_.remove_if([all](const std::unique_ptr<Connection>& c) {
        return all || c->live.load() == 0;
    });
}

namespace {

/// Median ping-pong round trip and (if `bulk`) bulk goodput through an
/// emulator to a local peer. Each request is a u64 byte count followed by
/// that many bytes; the peer answers with one byte once it holds them all.
LinkCheck probe_link(const c2pi::net::NetworkModel& model, double compensation, bool bulk) {
    std::uint16_t peer_port = 0;
    const int peer_listen = listen_ephemeral(peer_port);
    std::thread peer([peer_listen] {
        const int fd = ::accept4(peer_listen, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) return;
        set_nodelay(fd);
        std::vector<std::uint8_t> buf(1 << 16);
        std::uint64_t count = 0;
        while (read_exact(fd, reinterpret_cast<std::uint8_t*>(&count), sizeof(count))) {
            for (std::uint64_t left = count; left > 0;) {
                const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(left, buf.size()));
                if (!read_exact(fd, buf.data(), n)) break;
                left -= n;
            }
            const std::uint8_t ack = 1;
            if (!write_all(fd, &ack, 1)) break;
        }
        ::close(fd);
    });

    LinkCheck check;
    check.compensation_seconds = compensation;
    {
        LinkEmulator link(model, peer_port, compensation);
        const int fd = connect_loopback(link.port());
        c2pi::require(fd >= 0, "link self-check: cannot connect through the emulator");
        // Seconds for one request of `size` bytes to be acknowledged.
        const auto request = [fd](const std::vector<std::uint8_t>& payload) {
            std::uint64_t count = payload.size();
            std::uint8_t ack = 0;
            const auto t0 = Clock::now();
            if (!write_all(fd, reinterpret_cast<const std::uint8_t*>(&count), sizeof(count)) ||
                !write_all(fd, payload.data(), payload.size()) || !read_exact(fd, &ack, 1))
                return -1.0;
            return std::chrono::duration<double>(Clock::now() - t0).count();
        };

        std::vector<double> rtts;
        for (int i = 0; i < 31; ++i) rtts.push_back(request({}));
        std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2, rtts.end());
        check.rtt_seconds = rtts[rtts.size() / 2];

        if (bulk) {
            // ~150 ms of link time one way; goodput excludes the one round
            // trip of latency that the acknowledgement adds.
            const double seconds = request(std::vector<std::uint8_t>(
                static_cast<std::size_t>(model.bandwidth_bytes_per_s * 0.15), 0xA5));
            if (seconds > check.rtt_seconds)
                check.bandwidth_bytes_per_s =
                    model.bandwidth_bytes_per_s * 0.15 / (seconds - check.rtt_seconds);
        }
        ::close(fd);
    }
    peer.join();
    ::close(peer_listen);
    return check;
}

}  // namespace

LinkCheck self_check(const c2pi::net::NetworkModel& model, double tolerance) {
    const auto within = [tolerance](double got, double want) {
        return got > 0 && std::abs(got - want) <= tolerance * want;
    };
    LinkCheck check;
    for (int attempt = 1; attempt <= kCheckAttempts && !check.ok; ++attempt) {
        // The relay's own forwarding cost (loopback hops and thread
        // wake-ups in each direction) is part of the emulated link:
        // measure how far an uncompensated emulator overshoots the model
        // RTT, then delay by that much less.
        const double excess = probe_link(model, 0, /*bulk=*/false).rtt_seconds - model.rtt_seconds;
        check = probe_link(model, std::clamp(excess, 0.0, model.rtt_seconds), /*bulk=*/true);
        check.attempts = attempt;
        check.ok = within(check.rtt_seconds, model.rtt_seconds) &&
                   within(check.bandwidth_bytes_per_s, model.bandwidth_bytes_per_s);
    }
    return check;
}

}  // namespace perfbench
