#pragma once

// Shared setup for the two-process deployment demo (pi_server/pi_client).
//
// Only the SERVER constructs the demo model: the deployed client is
// weightless — it receives the public pi::ModelArtifact (topology,
// boundary, fixed-point format, BFV parameters) over the wire at session
// start and compiles a pi::ClientModel from it, holding no weights at
// any point. make_demo_model() appears on the client side only behind
// the explicit --check --with-model audit path, which reconstructs the
// reference model to compare the private result against plaintext
// inference.
//
// The two processes must agree on the SessionConfig; pass the same
// --backend/--noise flags to both (--full-pi is a server-side compile
// choice the client learns from the artifact). --nonlinear is server-
// authoritative: the server announces its resolved choice at session
// start, a client that omits the flag adopts it, and a client that
// passes a conflicting flag fails with a typed NonlinearMismatch error
// instead of hanging mid-protocol.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/layers.hpp"
#include "nn/zoo.hpp"
#include "pi/session.hpp"

namespace c2pi::demo {

inline constexpr std::uint16_t kDefaultPort = 17117;

/// Small conv net on 16x16 RGB inputs (the tests' reference topology:
/// conv/pool/ReLU/FC coverage, fast enough for a CI smoke test).
inline nn::Graph make_demo_model() {
    Rng rng(7);
    nn::Graph m;
    m.emplace<nn::Conv2d>(3, 6, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::MaxPool2d>(2, 2);
    m.emplace<nn::Conv2d>(6, 8, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::MaxPool2d>(2, 2);
    m.emplace<nn::Flatten>();
    m.emplace<nn::Linear>(8 * 4 * 4, 16, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Linear>(16, 10, rng);
    return m;
}

inline pi::CompiledModel::Options demo_compile_options(bool full_pi) {
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 16, 16};
    opts.he_ring_degree = 1024;
    if (!full_pi) opts.boundary = nn::CutPoint{.linear_index = 2, .after_relu = true};
    return opts;
}

/// Build the model served under `--model <id>`: "demo" is the classic
/// hand-rolled smoke-test net above; anything else resolves through the
/// typed zoo registry at smoke-test scale (16x16 inputs, 1/8 width).
/// Throws nn::zoo::UnknownModel on an unrecognized id.
inline nn::Graph make_remote_model(const std::string& id) {
    if (id == "demo") return make_demo_model();
    nn::ModelConfig cfg;
    cfg.input_hw = 16;
    cfg.width_multiplier = 0.125F;
    return nn::zoo::build(id, cfg);
}

/// Compile options for `--model <id>`. The demo model keeps its historic
/// boundary {2, after_relu} so its wire transcript stays byte-identical;
/// zoo models cut at the deepest articulation point among their
/// sweepable cuts (skip connections make some linear ops non-sweepable),
/// which for residual models puts whole blocks — including their
/// secret-shared skip-adds — inside the crypto prefix.
inline pi::CompiledModel::Options remote_compile_options(const nn::Graph& model,
                                                         const std::string& id, bool full_pi) {
    if (id == "demo") return demo_compile_options(full_pi);
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 16, 16};
    opts.he_ring_degree = 1024;
    if (!full_pi) {
        const auto linear = model.linear_op_indices();
        std::vector<std::int64_t> sweepable;  // 1-based linear indices
        for (std::size_t i = 1; i < linear.size(); ++i)
            if (model.is_articulation(linear[i - 1]))
                sweepable.push_back(static_cast<std::int64_t>(i));
        require(!sweepable.empty(), "model has no sweepable cut points");
        opts.boundary = nn::CutPoint{.linear_index = sweepable.back(), .after_relu = false};
    }
    return opts;
}

/// Flags shared by both binaries; each adds its own on top.
struct RemoteOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = kDefaultPort;
    std::string model = "demo";  // server: model id; client: --check reference
    bool full_pi = false;
    pi::SessionConfig session{};  // backend/noise/seed: must match peer
    int clients = 1;              // server: connections to serve (0 = forever)
    int pool = 0;                 // server: concurrent sessions (0 = auto)
    int queue = 8;                // server: waiting connections before BUSY
    int tail_window_ms = 0;       // server: cross-client clear-tail batching
    int handshake_timeout_ms = 5'000;  // server: bootstrap-laggard deadline
    std::uint64_t input_seed = 100;  // client: RNG seed for the demo input
    bool check = false;              // client: verify against plaintext
    bool with_model = false;         // client: opt into local reference weights
    int retries = 1;             // client: admission attempts (BUSY/connect)
    int retry_backoff_ms = 200;  // client: initial backoff between attempts
    int runs = 1;                // client: inferences over one artifact cache
    int stall_ms = 0;            // client: chaos hook — sleep before the
                                 // first protocol send (0 = disabled)
    std::string pin;             // client: expected artifact digest (hex)
};

/// Parse flags understood by both binaries; returns nullopt-style false
/// on an unknown flag (caller prints usage).
inline bool parse_remote_flag(int argc, char** argv, int& i, RemoteOptions& o) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            std::exit(2);
        }
        return argv[++i];
    };
    if (flag == "--host") {
        o.host = value();
    } else if (flag == "--model") {
        o.model = value();
    } else if (flag == "--port") {
        o.port = static_cast<std::uint16_t>(std::strtoul(value(), nullptr, 10));
    } else if (flag == "--full-pi") {
        o.full_pi = true;
    } else if (flag == "--backend") {
        const std::string b = value();
        if (b == "delphi") {
            o.session.backend = pi::PiBackend::kDelphi;
        } else if (b == "cheetah") {
            o.session.backend = pi::PiBackend::kCheetah;
        } else {
            std::fprintf(stderr, "unknown backend '%s' (delphi|cheetah)\n", b.c_str());
            std::exit(2);
        }
    } else if (flag == "--nonlinear") {
        const std::string b = value();
        if (b == "gc") {
            o.session.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
        } else if (b == "ot") {
            o.session.nonlinear = mpc::NonlinearBackend::kOtMillionaire;
        } else if (b == "fss") {
            o.session.nonlinear = mpc::NonlinearBackend::kFss;
        } else {
            std::fprintf(stderr, "unknown nonlinear backend '%s' (gc|ot|fss)\n", b.c_str());
            std::exit(2);
        }
    } else if (flag == "--no-pipeline") {
        o.session.pipeline = false;  // synchronous sends + batched HE responses
    } else if (flag == "--noise") {
        o.session.noise_lambda = std::strtof(value(), nullptr);
    } else if (flag == "--clients") {
        o.clients = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--pool") {
        o.pool = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--queue") {
        o.queue = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--tail-window") {
        o.tail_window_ms = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--handshake-timeout") {
        o.handshake_timeout_ms = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--retries") {
        o.retries = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--retry-backoff") {
        o.retry_backoff_ms = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--runs") {
        o.runs = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--stall-ms") {
        o.stall_ms = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (flag == "--pin") {
        o.pin = value();
    } else if (flag == "--input-seed") {
        o.input_seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--check") {
        o.check = true;
    } else if (flag == "--with-model") {
        o.with_model = true;
    } else {
        return false;
    }
    return true;
}

inline void print_stats(const pi::PiStats& s) {
    std::printf("  traffic: %.2f KiB preproc + %.2f KiB offline + %.2f KiB online   "
                "flights: %llu + %llu + %llu\n",
                static_cast<double>(s.preprocess_bytes) / 1024.0,
                static_cast<double>(s.offline_bytes) / 1024.0,
                static_cast<double>(s.online_bytes) / 1024.0,
                static_cast<unsigned long long>(s.preprocess_flights),
                static_cast<unsigned long long>(s.offline_flights),
                static_cast<unsigned long long>(s.online_flights));
    // Compute vs blocked-on-network split (zero when the transport does
    // not measure waits, e.g. plain recorders).
    if (s.total_wait_seconds() > 0.0) {
        std::printf("  net-wait: %.1f ms preproc + %.1f ms offline + %.1f ms online   "
                    "(compute %.1f ms of %.1f ms wall)\n",
                    s.preprocess_wait_seconds * 1e3, s.offline_wait_seconds * 1e3,
                    s.online_wait_seconds * 1e3,
                    (s.wall_seconds - s.total_wait_seconds()) * 1e3, s.wall_seconds * 1e3);
    }
}

}  // namespace c2pi::demo
