// pi_bench: end-to-end and per-layer benchmark of the deployed serving
// path.
//
// One process plays both sides of a deployment. The server side is a
// pi::ServingPool behind a TcpListener (the pi_server path); each client
// is weightless and runs pi::fetch_artifact with an ArtifactCache, then
// pi::ClientSession::run (the pi_client path), opening a fresh TCP
// connection per inference. Clients reach the server through a userspace
// link emulator (link.hpp) that applies the paper's LAN or WAN bandwidth
// and RTT, taken from net::NetworkModel, to the real bytes.
//
//   pi_bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 is the timed run: set-up (repeated, median reported), then a
// closed loop of inferences for S seconds, printing the end-to-end
// metrics. --trace 1 is the traced run: a shorter pool phase for the
// pool and traffic counters, traced and untraced single sessions driven
// by ServerSession::run on the accepted transport with a recording
// transport decorator on both parties, and a layer probe (probe.hpp);
// it prints the per-layer metrics and, given --trace-out, writes a Chrome
// trace to PATH.
// Every inference's logits are checked against plaintext Graph::infer.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stopwatch.hpp"
#include "link.hpp"
#include "nn/zoo.hpp"
#include "pi/bootstrap.hpp"
#include "pi/serving_pool.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace {

using namespace c2pi;
using perfbench::kClientLane;
using perfbench::kServerLane;
using perfbench::RecordingTransport;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

/// The emulator must deliver the model's RTT and bandwidth within this
/// fraction, the latency bound the benchmark declares.
constexpr double kLinkTolerance = 0.15;
/// Set-ups before and again after the timed loop; setup_s is the median
/// of both batches.
constexpr int kSetupReps = 9;
/// Distinct inputs per run, generated from the seed.
constexpr std::size_t kInputs = 8;
constexpr double kMiB = 1024.0 * 1024.0;

struct Workload {
    const char* name;
    const char* model;
    std::optional<nn::CutPoint> cut;  ///< nullopt = full PI
    mpc::NonlinearBackend nonlinear;
    net::NetworkModel link;
    int clients;         ///< concurrent closed-loop clients = pool workers
    int tail_window_ms;  ///< pool clear-tail batching window (0 = off)
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"c2pi-vgg16-wan", "vgg16", nn::CutPoint{.linear_index = 3, .after_relu = false},
         mpc::NonlinearBackend::kOtMillionaire, net::NetworkModel::wan(), 1, 0},
        {"full-resnet9-fss-lan", "resnet9", std::nullopt, mpc::NonlinearBackend::kFss,
         net::NetworkModel::lan(), 1, 0},
        {"c2pi-vgg16-pool-lan", "vgg16", nn::CutPoint{.linear_index = 3, .after_relu = false},
         mpc::NonlinearBackend::kOtMillionaire, net::NetworkModel::lan(), 4, 20},
    };
    return all;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double cpu_seconds() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------ correctness ---

/// Seeded inputs and their plaintext logits.
struct Reference {
    std::vector<Tensor> inputs;
    std::vector<Tensor> logits;
    /// Tolerance derived from the fixed-point format: 2^(-f/2), i.e. the
    /// top half of the fractional bits must agree with plaintext.
    double tolerance = 0;

    Reference(const nn::Graph& graph, std::uint64_t seed, const FixedPointFormat& fmt)
        : tolerance(std::ldexp(1.0, -fmt.frac_bits / 2)) {
        Rng rng(seed ^ 0x1A7E5EEDULL);
        for (std::size_t k = 0; k < kInputs; ++k) {
            inputs.push_back(Tensor::uniform({1, 3, 32, 32}, rng, 0.0F, 1.0F));
            logits.push_back(graph.infer(inputs.back()));
        }
    }

    /// Empty when `got` matches input k's plaintext logits: every logit
    /// within the tolerance and the same argmax (a different argmax is
    /// accepted only if plaintext ties the two classes within the
    /// tolerance's resolution). Otherwise the reason.
    [[nodiscard]] std::string check(const Tensor& got, std::size_t k) const {
        const Tensor& want = logits[k];
        if (got.numel() != want.numel()) return "logit count differs from plaintext";
        double err = 0;
        std::int64_t got_top = 0, want_top = 0;
        for (std::int64_t i = 0; i < want.numel(); ++i) {
            err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
            if (got[i] > got[got_top]) got_top = i;
            if (want[i] > want[want_top]) want_top = i;
        }
        char why[160];
        if (!(err <= tolerance)) {
            std::snprintf(why, sizeof(why), "max |logit error| %.6g exceeds tolerance %.6g", err,
                          tolerance);
            return why;
        }
        if (got_top != want_top && want[want_top] - want[got_top] > 2 * tolerance) {
            std::snprintf(why, sizeof(why), "argmax %lld differs from plaintext argmax %lld",
                          static_cast<long long>(got_top), static_cast<long long>(want_top));
            return why;
        }
        return {};
    }
};

/// What one client inference produced.
struct Outcome {
    bool ok = false;
    std::string error;
    std::size_t input = 0;
    double latency_s = 0;    ///< connect .. decoded logits
    double bootstrap_s = 0;  ///< fetch_artifact
    Clock::time_point bootstrap_done{};
    Clock::time_point done{};  ///< after the connection closed
    net::ChannelStats stats;
    double wait_s = 0;  ///< client WaitStats total
    Tensor logits;
};

/// Counts attempts and failures across a run. A failure is a refused or
/// broken session, a wrong output, or metered traffic that differs from
/// the run's first inference.
class Tally {
public:
    explicit Tally(const Reference& ref) : ref_(&ref) {}

    /// Check and count one outcome; returns whether it passed.
    bool add(Outcome& o) {
        std::string why = o.ok ? ref_->check(o.logits, o.input) : o.error;
        const std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (why.empty()) {
            if (!bytes_) bytes_ = o.stats.total_bytes();
            if (*bytes_ != o.stats.total_bytes()) why = "metered bytes differ between inferences";
        }
        if (!why.empty()) {
            ++failed_;
            if (failed_ <= 3) std::fprintf(stderr, "pi_bench: inference failed: %s\n", why.c_str());
            o.ok = false;
        }
        return o.ok;
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    /// Metered protocol bytes of every passing inference.
    [[nodiscard]] std::uint64_t bytes() const { return bytes_.value_or(0); }

private:
    const Reference* ref_;
    std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::optional<std::uint64_t> bytes_;
};

// ----------------------------------------------------------------- server ---

/// The deployed server: compiled model, serving pool and listener with
/// its accept loop (the pi_server path). In direct mode the accept loop
/// hands connections to a callback instead of the pool.
class Server {
public:
    using Direct = std::function<void(std::unique_ptr<net::TcpTransport>)>;

    Server(const nn::Graph& graph, const Workload& w, const pi::SessionConfig& config,
           int threads) {
        Stopwatch watch;
        pi::CompiledModel::Options opts;
        opts.input_chw = {3, 32, 32};
        opts.boundary = w.cut;
        opts.he_ring_degree = 4096;
        opts.num_threads = threads;
        compiled_ = std::make_unique<pi::CompiledModel>(graph, opts);
        compile_s_ = watch.seconds();
        artifact_ = compiled_->artifact().serialize();
        digest_ = pi::digest_of(artifact_);

        pi::ServingPool::Options pool;
        pool.workers = w.clients;
        pool.queue_capacity = w.clients;
        pool.tail_window_ms = w.tail_window_ms;
        pool_ = std::make_unique<pi::ServingPool>(
            *compiled_, config, pool, [this](const pi::ServingPool::SessionReport& r) {
                const std::lock_guard<std::mutex> lock(mutex_);
                reports_.push_back(r);
                reported_.notify_all();
            });
        acceptor_ = std::thread([this] { accept_loop(); });
    }

    ~Server() {
        stop_ = true;
        acceptor_.join();
        pool_->drain();
    }

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
    [[nodiscard]] double compile_seconds() const { return compile_s_; }
    [[nodiscard]] const pi::CompiledModel& compiled() const { return *compiled_; }
    [[nodiscard]] pi::ServingPool::Stats stats() const { return pool_->stats(); }
    /// The serialized artifact and its digest, as the pool ships them.
    [[nodiscard]] const std::vector<std::uint8_t>& artifact() const { return artifact_; }
    [[nodiscard]] const pi::ArtifactDigest& digest() const { return digest_; }

    /// Session reports delivered since the last call, once at least
    /// `expected` are in: a worker reports after its client has already
    /// seen the logits.
    std::vector<pi::ServingPool::SessionReport> take_reports(std::size_t expected) {
        std::unique_lock<std::mutex> lock(mutex_);
        (void)reported_.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return reports_.size() >= expected; });
        return std::exchange(reports_, {});
    }

    void set_direct(Direct direct) {
        const std::lock_guard<std::mutex> lock(mutex_);
        direct_ = std::move(direct);
    }

private:
    void accept_loop() {
        while (!stop_) {
            std::unique_ptr<net::TcpTransport> transport;
            try {
                transport = listener_.try_accept(100);
            } catch (const std::exception&) {
                continue;  // a connection that failed its handshake
            }
            if (transport == nullptr) continue;
            Direct direct;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                direct = direct_;
            }
            if (direct) {
                direct(std::move(transport));
            } else {
                (void)pool_->serve(std::move(transport));
            }
        }
    }

    double compile_s_ = 0;
    std::unique_ptr<pi::CompiledModel> compiled_;
    std::vector<std::uint8_t> artifact_;
    pi::ArtifactDigest digest_{};
    std::mutex mutex_;
    std::condition_variable reported_;
    std::vector<pi::ServingPool::SessionReport> reports_;
    Direct direct_;
    std::unique_ptr<pi::ServingPool> pool_;
    net::TcpListener listener_{0};
    std::atomic<bool> stop_{false};
    std::thread acceptor_;
};

// ----------------------------------------------------------------- client ---

/// One weightless-client inference through the link (the pi_client path).
/// With a recorder, the client's transport calls are recorded as spans.
Outcome infer(std::uint16_t port, pi::ArtifactCache& cache, const pi::SessionConfig& config,
              const Reference& ref, std::size_t input, int threads, SpanRecorder* recorder) {
    Outcome out;
    out.input = input;
    const Clock::time_point start = Clock::now();
    try {
        auto tcp = net::connect("127.0.0.1", port, 30'000);
        tcp->set_recv_timeout(120'000);
        std::optional<RecordingTransport> recording;
        net::Transport* transport = tcp.get();
        if (recorder != nullptr) transport = &recording.emplace(*tcp, *recorder, kClientLane);

        pi::Bootstrap boot;
        {
            const ScopedSpan span(recorder, "bootstrap", "pi", kClientLane);
            if (recording) recording->set_parent(span.id());
            boot = pi::fetch_artifact(*transport, &cache, std::nullopt, threads);
        }
        out.bootstrap_done = Clock::now();
        out.bootstrap_s = seconds_between(start, out.bootstrap_done);
        const pi::ClientSession session(*boot.model, config);
        {
            const ScopedSpan span(recorder, "session", "pi", kClientLane);
            if (recording) recording->set_parent(span.id());
            out.logits = session.run(*transport, ref.inputs[input]);
        }
        out.latency_s = seconds_between(start, Clock::now());
        out.stats = tcp->stats();
        out.wait_s = tcp->wait_stats().total_seconds();
        tcp->close();
        out.ok = true;
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    out.done = Clock::now();
    return out;
}

/// Closed loop: `clients` threads each run inferences back to back until
/// `seconds` have passed since the start. Returns the passing outcomes
/// and the wall time from the start to the last completion.
struct Load {
    std::vector<Outcome> passed;
    double wall_s = 0;
};

Load run_load(std::uint16_t port, pi::ArtifactCache& cache, const pi::SessionConfig& config,
              const Reference& ref, Tally& tally, int clients, double seconds, int threads) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::mutex mutex;
    Load load;
    Clock::time_point last = start;
    std::vector<std::thread> loops;
    for (int c = 0; c < clients; ++c) {
        loops.emplace_back([&, c] {
            for (std::size_t k = 0; Clock::now() < deadline; ++k) {
                const std::size_t input = (static_cast<std::size_t>(c) +
                                           static_cast<std::size_t>(clients) * k) % kInputs;
                Outcome o = infer(port, cache, config, ref, input, threads, nullptr);
                const bool ok = tally.add(o);
                const std::lock_guard<std::mutex> lock(mutex);
                last = std::max(last, o.done);
                if (ok) load.passed.push_back(std::move(o));
            }
        });
    }
    for (auto& t : loops) t.join();
    load.wall_s = seconds_between(start, last);
    return load;
}

// ------------------------------------------------------------------ output ---

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics)
        std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// -------------------------------------------------------------------- runs ---

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;  ///< Chrome trace path; empty = do not write one
};

/// Everything both runs share: the verified link, the model, the seeded
/// reference outputs and the session configuration.
struct Bench {
    const Workload& w;
    const Args& args;
    int threads;
    pi::SessionConfig config;
    perfbench::LinkCheck link_check;
    nn::Graph graph;
    Reference ref;
    Tally tally;
    perfbench::LinkEmulator link;

    Bench(const Workload& workload, const Args& a, int num_threads)
        : w(workload),
          args(a),
          threads(num_threads),
          config(session_config(workload)),
          link_check(perfbench::self_check(workload.link, kLinkTolerance)),
          graph(build_graph(workload, a.seed)),
          ref(graph, a.seed, FixedPointFormat{.frac_bits = 16}),
          tally(ref),
          link(workload.link, 0, link_check.compensation_seconds) {
        std::printf("link %s: rtt %.4f ms (model %.4f), bandwidth %.1f MiB/s (model %.1f), "
                    "relay compensation %.4f ms: %s after %d measurement(s)\n",
                    w.link.name.c_str(), link_check.rtt_seconds * 1e3, w.link.rtt_seconds * 1e3,
                    link_check.bandwidth_bytes_per_s / kMiB, w.link.bandwidth_bytes_per_s / kMiB,
                    link_check.compensation_seconds * 1e3, link_check.ok ? "ok" : "OUT OF BOUND",
                    link_check.attempts);
    }

    static pi::SessionConfig session_config(const Workload& w) {
        pi::SessionConfig c;
        c.backend = pi::PiBackend::kCheetah;
        c.noise_lambda = 0.0F;
        c.nonlinear = w.nonlinear;
        c.pipeline = true;
        return c;
    }

    static nn::Graph build_graph(const Workload& w, std::uint64_t seed) {
        nn::ModelConfig mc;
        mc.input_hw = 32;
        mc.width_multiplier = 0.125F;
        mc.seed = seed;
        return nn::zoo::build(w.model, mc);
    }

    /// One set-up: compile, start the pool and listener, and have a first
    /// client with an empty artifact cache fetch the artifact over the
    /// link and compile its ClientModel; returns the seconds that took.
    /// The first client's bootstrap is served by pi::ship_artifact, the
    /// call a pool worker starts every session with, so that a set-up
    /// does not also pay for a whole session.
    double setup(std::unique_ptr<Server>& server, std::unique_ptr<pi::ArtifactCache>& cache) {
        server.reset();  // drain the previous set-up first
        cache = std::make_unique<pi::ArtifactCache>();
        const Clock::time_point start = Clock::now();
        server = std::make_unique<Server>(graph, w, config, threads);
        const Server& s = *server;
        server->set_direct([&s](std::unique_ptr<net::TcpTransport> tcp) {
            try {
                (void)pi::ship_artifact(*tcp, s.artifact(), s.digest());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "pi_bench: set-up bootstrap failed: %s\n", e.what());
            }
            tcp->close();
        });
        link.retarget(server->port());
        auto tcp = net::connect("127.0.0.1", link.port(), 30'000);
        tcp->set_recv_timeout(120'000);
        (void)pi::fetch_artifact(*tcp, cache.get(), std::nullopt, threads);
        const double seconds = seconds_between(start, Clock::now());
        tcp->close();
        server->set_direct({});
        return seconds;
    }

    /// Set up `kSetupReps` times and keep the last deployment; then one
    /// checked warm-up inference through its pool. Returns the set-up
    /// seconds of every repetition.
    std::vector<double> deploy(std::unique_ptr<Server>& server,
                               std::unique_ptr<pi::ArtifactCache>& cache, int reps) {
        std::vector<double> seconds;
        for (int r = 0; r < reps; ++r) seconds.push_back(setup(server, cache));
        Outcome warm = infer(link.port(), *cache, config, ref, 0, threads, nullptr);
        (void)tally.add(warm);
        return seconds;
    }

    [[nodiscard]] bool correct() const { return link_check.ok && tally.failed() == 0; }
};

int run_timed(Bench& b) {
    std::unique_ptr<Server> server;
    std::unique_ptr<pi::ArtifactCache> cache;
    std::vector<double> setups = b.deploy(server, cache, kSetupReps);

    const double cpu0 = cpu_seconds();
    const Load load = run_load(b.link.port(), *cache, b.config, b.ref, b.tally, b.w.clients,
                               b.args.seconds, b.threads);
    const double cpu = cpu_seconds() - cpu0;

    // As many set-ups again after the loop. A set-up takes milliseconds,
    // so a burst of scheduling noise on a shared host can cover every
    // repetition of one batch; batches at both ends of the run give a
    // steadier median than one.
    for (int r = 0; r < kSetupReps; ++r) setups.push_back(b.setup(server, cache));
    std::printf("set-up over %zu repetitions: min %.4f s, median %.4f s, max %.4f s\n",
                setups.size(), *std::min_element(setups.begin(), setups.end()), median(setups),
                *std::max_element(setups.begin(), setups.end()));

    std::vector<double> latencies;
    for (const Outcome& o : load.passed) latencies.push_back(o.latency_s);
    const double n = std::max<double>(1.0, static_cast<double>(load.passed.size()));
    std::printf("%s: %zu inferences passed in %.3f s; failed_frac %.4f (%llu of %llu)\n",
                b.w.name, load.passed.size(), load.wall_s,
                static_cast<double>(b.tally.failed()) / static_cast<double>(b.tally.attempted()),
                static_cast<unsigned long long>(b.tally.failed()),
                static_cast<unsigned long long>(b.tally.attempted()));
    const std::size_t samples = latencies.size();
    if (samples > 0)
        std::printf("  latency over %zu samples: min %.4f s, median %.4f s, max %.4f s\n",
                    samples, *std::min_element(latencies.begin(), latencies.end()),
                    median(latencies), *std::max_element(latencies.begin(), latencies.end()));
    if (samples >= 100) {
        std::printf("  latency_p90_s %.6f s\n", percentile(latencies, 0.9));
    } else {
        std::printf("  latency_p90_s omitted: %zu inferences, fewer than 100\n", samples);
        // The highest percentile that still has ten samples beyond it.
        if (samples > 20) {
            const double q = static_cast<double>(samples - 10) / static_cast<double>(samples);
            std::printf("  latency p%.0f %.4f s\n", std::floor(q * 100),
                        percentile(latencies, std::floor(q * 100) / 100));
        }
    }
    print_result(b.correct() && !load.passed.empty(), b.tally,
                 {{"latency_p50_s", median(latencies), "s"},
                  {"throughput_inf_per_s", static_cast<double>(load.passed.size()) /
                                               std::max(load.wall_s, 1e-9),
                   "1/s"},
                  {"comm_mb_per_inf", static_cast<double>(b.tally.bytes()) / kMiB, "MiB"},
                  {"setup_s", median(setups), "s"},
                  {"cpu_s_per_inf", cpu / n, "s"},
                  {"peak_rss_mb", peak_rss_mib(), "MiB"}});
    return 0;
}

/// Server side of a directly driven session: what pi_server's pool
/// worker does (artifact bootstrap, ServerSession::run), on the accept
/// thread, optionally recorded.
struct DirectSession {
    bool traced = false;
    bool ok = false;
    double wall_s = 0;
    double wait_s = 0;
    double tail_s = 0;
};

int run_traced(Bench& b) {
    SpanRecorder recorder;
    std::unique_ptr<Server> server;
    std::unique_ptr<pi::ArtifactCache> cache;
    (void)b.deploy(server, cache, 1);
    const pi::CompiledModel& compiled = server->compiled();

    // Pool phase: the workload's own load, untraced, for the serving and
    // traffic counters.
    (void)server->take_reports(1);  // the warm-up
    const perfbench::LinkEmulator::Counters link0 = b.link.counters();
    const Load load = run_load(b.link.port(), *cache, b.config, b.ref, b.tally, b.w.clients,
                               b.args.seconds / 2, b.threads);
    const perfbench::LinkEmulator::Counters link1 = b.link.counters();
    const auto reports = server->take_reports(load.passed.size());
    const pi::ServingPool::Stats pool = server->stats();

    // Direct phase: single sessions, alternating untraced and traced.
    const pi::ServerSession session(compiled, b.config);
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<DirectSession> served;
    std::atomic<bool> traced{false};
    server->set_direct([&](std::unique_ptr<net::TcpTransport> tcp) {
        DirectSession d;
        d.traced = traced;
        SpanRecorder* rec = d.traced ? &recorder : nullptr;
        std::optional<RecordingTransport> recording;
        net::Transport* transport = tcp.get();
        if (rec != nullptr) transport = &recording.emplace(*tcp, *rec, kServerLane);
        try {
            Stopwatch watch;
            tcp->set_recv_timeout(120'000);
            {
                const ScopedSpan span(rec, "bootstrap", "pi", kServerLane);
                if (recording) recording->set_parent(span.id());
                (void)pi::ship_artifact(*transport, server->artifact(), server->digest());
            }
            const ScopedSpan span(rec, "session", "pi", kServerLane);
            if (recording) recording->set_parent(span.id());
            session.run(*transport, [&](const Tensor& act) {
                const ScopedSpan tail(rec, "tail", "nn", kServerLane, span.id());
                Stopwatch tail_watch;
                Tensor logits = compiled.run_clear_tail(act);
                d.tail_s += tail_watch.seconds();
                return logits;
            });
            d.wall_s = watch.seconds();
            d.wait_s = tcp->wait_stats().total_seconds();
            d.ok = true;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "pi_bench: direct session failed: %s\n", e.what());
        }
        tcp->close();
        const std::lock_guard<std::mutex> lock(mutex);
        served.push_back(d);
        cv.notify_all();
    });
    std::vector<double> plain_latency, traced_latency;
    const Clock::time_point direct_start = Clock::now();
    for (std::size_t k = 0; k < 2 || seconds_between(direct_start, Clock::now()) <
                                         b.args.seconds / 2; ++k) {
        traced = k % 2 == 1;
        Outcome o = infer(b.link.port(), *cache, b.config, b.ref, k % kInputs, b.threads,
                          traced ? &recorder : nullptr);
        if (b.tally.add(o)) (traced ? traced_latency : plain_latency).push_back(o.latency_s);
        std::unique_lock<std::mutex> lock(mutex);
        if (!cv.wait_for(lock, std::chrono::seconds(150), [&] { return served.size() == k + 1; }))
            break;  // the connection never reached the server; counted failed above
    }
    server->set_direct({});

    // Layer probe, in process.
    Stopwatch client_compile;
    const pi::ClientModel client_model(compiled.artifact(), b.threads);
    const double client_compile_s = client_compile.seconds();
    const perfbench::ProbeResult probe =
        perfbench::probe_layers(compiled, client_model, b.config, &recorder);
    if (!b.args.trace_out.empty()) recorder.write_chrome_trace(b.args.trace_out);

    // ---- derive the per-layer metrics --------------------------------------
    std::vector<double> latency, bootstrap, client_wait, server_wall, server_wait;
    for (const Outcome& o : load.passed) {
        latency.push_back(o.latency_s);
        bootstrap.push_back(o.bootstrap_s);
        client_wait.push_back(o.wait_s);
    }
    for (const auto& r : reports) {
        if (!r.ok) continue;
        server_wall.push_back(r.stats.wall_seconds);
        server_wait.push_back(r.stats.total_wait_seconds());
    }
    std::vector<double> direct_compute, tail;
    for (const DirectSession& d : served) {
        if (!d.ok) continue;
        if (!d.traced) direct_compute.push_back(d.wall_s - d.wait_s);
        tail.push_back(d.tail_s);
    }
    const net::ChannelStats stats =
        load.passed.empty() ? net::ChannelStats{} : load.passed.front().stats;
    std::uint64_t messages = 0;
    for (int p = 0; p < net::kNumPhases; ++p) messages += stats.messages[p][0] + stats.messages[p][1];
    const double inferences = std::max<double>(1.0, static_cast<double>(load.passed.size()));
    const double metered = static_cast<double>(stats.total_bytes()) * inferences;
    const bool fss = b.w.nonlinear == mpc::NonlinearBackend::kFss;
    const double tail_s = median(tail);

    std::vector<Metric> m = {
        {"pi.compile_s", server->compile_seconds(), "s"},
        {"pi.client_compile_s", client_compile_s, "s"},
        {"pi.artifact_kb", static_cast<double>(server->artifact().size()) / 1024.0, "KiB"},
        {"pi.bootstrap_s", median(bootstrap), "s"},
        {"pi.server_session_s", median(server_wall), "s"},
        // Means, not medians: over the same sessions, the difference of
        // means is the mean of each session's client-minus-server time.
        {"pi.queue_wait_s", mean(latency) - mean(server_wall), "s"},
        {"pi.pool.concurrent_peak", static_cast<double>(pool.concurrent_peak), "count"},
        {"pi.pool.rejected", static_cast<double>(pool.rejected), "count"},
        {"pi.pool.failed", static_cast<double>(pool.failed), "count"},
        {"pi.tail.batch_size",
         compiled.full_pi() ? 0.0
         : pool.tail_batches > 0
             ? static_cast<double>(pool.tail_requests) / static_cast<double>(pool.tail_batches)
             : 1.0,
         "count"},
        {"nn.tail_s", tail_s, "s"},
        {"net.offline_mb", static_cast<double>(stats.phase_bytes(net::Phase::kOffline)) / kMiB,
         "MiB"},
        {"net.online_mb", static_cast<double>(stats.phase_bytes(net::Phase::kOnline)) / kMiB,
         "MiB"},
        {"net.preprocess_mb",
         static_cast<double>(stats.phase_bytes(net::Phase::kPreprocess)) / kMiB, "MiB"},
        {"net.flights", static_cast<double>(stats.total_flights()), "count"},
        {"net.messages", static_cast<double>(messages), "count"},
        {"net.server_wait_s", median(server_wait), "s"},
        {"net.client_wait_s", median(client_wait), "s"},
        {"net.link_busy_s", (link1.busy_seconds - link0.busy_seconds) / inferences, "s"},
        {"net.wire_overhead_frac",
         metered > 0 ? static_cast<double>(link1.bytes - link0.bytes) / metered - 1.0 : 0.0,
         "ratio"},
    };
    double probed_server = 0;
    for (std::size_t i = 0; i < perfbench::kProbeOps.size(); ++i) {
        const perfbench::OpCost& op = probe.ops[i];
        const std::string prefix = std::string("mpc.") + perfbench::kProbeOps[i];
        m.push_back({prefix + ".s", op.seconds, "s"});
        m.push_back({prefix + ".server_busy_s", op.server_busy_s, "s"});
        m.push_back({prefix + ".mb", static_cast<double>(op.bytes) / kMiB, "MiB"});
        m.push_back({prefix + ".flights", static_cast<double>(op.flights), "count"});
        probed_server += op.server_busy_s;
    }
    m.push_back({"fss.comparisons", fss ? static_cast<double>(probe.comparisons) : 0.0, "count"});
    m.push_back({"fss.deal_s", probe.deal_s, "s"});
    m.push_back({"fss.ingest_s", probe.ingest_s, "s"});
    m.push_back({"fss.keys_mb", static_cast<double>(probe.keys_bytes) / kMiB, "MiB"});
    probed_server += probe.deal_s + tail_s;
    const double compute = median(direct_compute);
    const double measured = median(plain_latency);
    const double modeled =
        b.w.link.latency_seconds(probe.compute_s, stats.total_bytes(), stats.total_flights());
    m.push_back({"trace.coverage", compute > 0 ? probed_server / compute : 0.0, "ratio"});
    m.push_back({"trace.overhead_frac", measured > 0 ? median(traced_latency) / measured - 1 : 0.0,
                 "ratio"});
    m.push_back({"net.model_ratio", measured > 0 ? modeled / measured : 0.0, "ratio"});

    std::printf("%s: measured single-session latency %.4f s, cost model %.4f s "
                "(net.model_ratio %.3f)\n",
                b.w.name, measured, modeled, measured > 0 ? modeled / measured : 0.0);
    // The largest server-side layers: where an optimisation should start.
    std::vector<std::pair<double, std::string>> layers = {{probe.deal_s, "fss.deal"},
                                                          {tail_s, "nn.tail"}};
    for (std::size_t i = 0; i < perfbench::kProbeOps.size(); ++i)
        layers.emplace_back(probe.ops[i].server_busy_s,
                            std::string("mpc.") + perfbench::kProbeOps[i]);
    std::sort(layers.rbegin(), layers.rend());
    std::printf("largest server-side layers (busy s):");
    for (std::size_t i = 0; i < 3; ++i)
        std::printf(" %s %.4f%s", layers[i].second.c_str(), layers[i].first, i < 2 ? "," : "\n");
    std::printf("chrome trace: %s (%zu spans)\n",
                b.args.trace_out.empty() ? "not written" : b.args.trace_out.c_str(),
                recorder.spans().size());

    const bool complete = !load.passed.empty() && !plain_latency.empty() &&
                          !traced_latency.empty() && !direct_compute.empty();
    print_result(b.correct() && complete, b.tally, m);
    return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr, "usage: pi_bench --workload NAME --seed N --seconds S --trace 0|1 "
                             "[--trace-out PATH]\n");
        return 2;
    }
    const Workload* workload = nullptr;
    for (const Workload& w : workloads())
        if (args.workload == w.name) workload = &w;
    if (workload == nullptr) {
        std::fprintf(stderr, "pi_bench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    try {
        const int threads = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
        Bench bench(*workload, args, threads);
        return args.trace ? run_traced(bench) : run_timed(bench);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pi_bench: %s\n", e.what());
        return 1;
    }
}
