// ServingPool tests: M concurrent TCP clients against one pool must get
// logits bit-identical to sequential serving; a saturated pool must
// answer with the typed BUSY rejection (net::ServerBusy on the client);
// drain() must finish every admitted session; a session's report must
// arrive after its admission slot is freed; aggregate stats must sum
// the per-session accounting exactly; and the windowed TailBatcher must
// coalesce the clear tails of concurrent clients into ONE plaintext pass
// without changing any client's logits or per-phase traffic (a full-PI
// model has no tail to batch and must serve without a batcher).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "pi/serving_pool.hpp"
#include "support.hpp"

namespace c2pi::pi {
namespace {

std::vector<Tensor> make_inputs(std::size_t n) {
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < n; ++i) {
        Rng rng(100 + i);
        inputs.push_back(Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F));
    }
    return inputs;
}

/// One weightless TCP client, the deployed shape: artifact over the
/// wire, ClientModel compiled from it, one inference.
struct ClientRun {
    Tensor logits;
    PiStats stats;
};

ClientRun run_weightless_client(std::uint16_t port, const SessionConfig& config,
                                const Tensor& input, ArtifactCache* cache = nullptr) {
    auto transport = net::connect("127.0.0.1", port, /*timeout_ms=*/30'000);
    transport->set_recv_timeout(120'000);
    const Bootstrap boot = fetch_artifact(*transport, cache);
    const ClientSession session(*boot.model, config);
    ClientRun run;
    run.logits = session.run(*transport, input);
    run.stats = stats_from_channel(transport->stats());
    transport->close();
    return run;
}

// ---------------------------------------------------- concurrent parity ---

TEST(ServingPool, ConcurrentClientsBitIdenticalToSequentialAndStatsSum) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.noise_lambda = 0.05F, .seed = 42};

    constexpr std::size_t kClients = 3;
    const auto inputs = make_inputs(kClients);

    // Serial reference: the in-process session pair (already proven
    // transport-equivalent by tcp_test/artifact_test).
    std::vector<PiResult> reference;
    for (const auto& x : inputs)
        reference.push_back(run_private_inference(compiled, config, x));

    ServingPool pool(compiled, config,
                     {.workers = static_cast<int>(kClients), .queue_capacity = 2});
    net::TcpListener listener(0);

    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            runs[i] = run_weightless_client(listener.port(), config, inputs[i]);
        });
    for (std::size_t i = 0; i < kClients; ++i)
        ASSERT_TRUE(pool.serve(listener.accept(30'000))) << "client " << i;
    for (auto& t : clients) t.join();
    pool.drain();

    const auto stats = pool.stats();
    EXPECT_EQ(stats.accepted, kClients);
    EXPECT_EQ(stats.served, kClients);
    EXPECT_EQ(stats.rejected, 0U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.active, 0);
    EXPECT_GE(stats.concurrent_peak, 1);
    EXPECT_LE(stats.concurrent_peak, static_cast<int>(kClients));

    PiStats summed;
    for (std::size_t i = 0; i < kClients; ++i) {
        ASSERT_TRUE(runs[i].logits.same_shape(reference[i].logits)) << i;
        EXPECT_TRUE(runs[i].logits.allclose(reference[i].logits, 0.0F))
            << "client " << i << " diverged from sequential serving";
        // Per-request traffic over the pool matches the sequential run.
        EXPECT_EQ(runs[i].stats.offline_bytes, reference[i].stats.offline_bytes) << i;
        EXPECT_EQ(runs[i].stats.online_bytes, reference[i].stats.online_bytes) << i;
        EXPECT_EQ(runs[i].stats.offline_flights, reference[i].stats.offline_flights) << i;
        EXPECT_EQ(runs[i].stats.online_flights, reference[i].stats.online_flights) << i;
        summed.offline_bytes += reference[i].stats.offline_bytes;
        summed.online_bytes += reference[i].stats.online_bytes;
        summed.offline_flights += reference[i].stats.offline_flights;
        summed.online_flights += reference[i].stats.online_flights;
    }
    // The pool's aggregate is exactly the sum of its sessions.
    EXPECT_EQ(stats.traffic.offline_bytes, summed.offline_bytes);
    EXPECT_EQ(stats.traffic.online_bytes, summed.online_bytes);
    EXPECT_EQ(stats.traffic.offline_flights, summed.offline_flights);
    EXPECT_EQ(stats.traffic.online_flights, summed.online_flights);
    EXPECT_GT(stats.traffic.wall_seconds, 0.0);
}

// ------------------------------------------------- cross-client batching ---

TEST(ServingPool, WindowedTailCoalescesAcrossClientsBitIdentically) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.seed = 5};

    constexpr std::size_t kClients = 3;
    const auto inputs = make_inputs(kClients);
    std::vector<PiResult> reference;
    for (const auto& x : inputs)
        reference.push_back(run_private_inference(compiled, config, x));
    const std::uint64_t passes_before = compiled.clear_tail_passes();

    // Window far above the crypto-phase spread; the group still closes
    // with zero extra wait once all kClients (== workers) deposited.
    ServingPool pool(compiled, config,
                     {.workers = static_cast<int>(kClients),
                      .queue_capacity = 2,
                      .tail_window_ms = 60'000});
    net::TcpListener listener(0);

    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            runs[i] = run_weightless_client(listener.port(), config, inputs[i]);
        });
    for (std::size_t i = 0; i < kClients; ++i)
        ASSERT_TRUE(pool.serve(listener.accept(30'000))) << "client " << i;
    for (auto& t : clients) t.join();
    pool.drain();

    // ONE batched plaintext pass served every client's clear tail...
    EXPECT_EQ(compiled.clear_tail_passes() - passes_before, 1U);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.served, kClients);
    EXPECT_EQ(stats.tail_batches, 1U);
    EXPECT_EQ(stats.tail_requests, kClients);
    // ...without changing anyone's logits or protocol transcript:
    // batching moves where the tail executes, not what goes on the wire.
    for (std::size_t i = 0; i < kClients; ++i) {
        EXPECT_TRUE(runs[i].logits.allclose(reference[i].logits, 0.0F))
            << "client " << i << " diverged under cross-client tail batching";
        const PiStats& got = runs[i].stats;
        const PiStats& want = reference[i].stats;
        EXPECT_EQ(got.offline_bytes, want.offline_bytes) << i;
        EXPECT_EQ(got.online_bytes, want.online_bytes) << i;
        EXPECT_EQ(got.preprocess_bytes, want.preprocess_bytes) << i;
        EXPECT_EQ(got.offline_flights, want.offline_flights) << i;
        EXPECT_EQ(got.online_flights, want.online_flights) << i;
        EXPECT_EQ(got.preprocess_flights, want.preprocess_flights) << i;
    }
}

TEST(ServingPool, FullPiWithTailWindowBuildsNoBatcher) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/true));
    const SessionConfig config{.seed = 9};

    constexpr std::size_t kClients = 2;
    const auto inputs = make_inputs(kClients);
    std::vector<Tensor> reference;
    for (const auto& x : inputs)
        reference.push_back(run_private_inference(compiled, config, x).logits);

    // A tail window on a full-PI model is ignored: there is no clear tail,
    // so no session may wait at a rendezvous that would never close.
    ServingPool pool(compiled, config,
                     {.workers = static_cast<int>(kClients),
                      .queue_capacity = 2,
                      .tail_window_ms = 60'000});
    net::TcpListener listener(0);

    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            runs[i] = run_weightless_client(listener.port(), config, inputs[i]);
        });
    for (std::size_t i = 0; i < kClients; ++i)
        ASSERT_TRUE(pool.serve(listener.accept(30'000))) << "client " << i;
    for (auto& t : clients) t.join();
    pool.drain();

    const auto stats = pool.stats();
    EXPECT_EQ(stats.served, kClients);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.tail_batches, 0U);
    EXPECT_EQ(stats.tail_requests, 0U);
    EXPECT_EQ(compiled.clear_tail_passes(), 0U);
    for (std::size_t i = 0; i < kClients; ++i)
        EXPECT_TRUE(runs[i].logits.allclose(reference[i], 0.0F)) << "client " << i;
}

// ------------------------------------------------------ typed rejection ---

TEST(ServingPool, OverloadRejectsWithTypedBusyFrame) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.seed = 9};

    // One worker, zero queue: the second admission attempt must refuse.
    ServingPool pool(compiled, config, {.workers = 1, .queue_capacity = 0});
    net::TcpListener listener(0);

    const auto inputs = make_inputs(1);
    ClientRun first;
    std::thread first_client(
        [&] { first = run_weightless_client(listener.port(), config, inputs[0]); });
    ASSERT_TRUE(pool.serve(listener.accept(30'000)));

    // serve() counts the admitted session immediately, so this is
    // deterministic even if the worker has not picked it up yet.
    std::thread second_client([&] {
        auto transport = net::connect("127.0.0.1", listener.port(), 30'000);
        transport->set_recv_timeout(30'000);
        EXPECT_THROW((void)transport->recv_artifact_bytes(), net::ServerBusy);
        transport->close();
    });
    EXPECT_FALSE(pool.serve(listener.accept(30'000)));

    first_client.join();
    second_client.join();
    pool.drain();

    const auto stats = pool.stats();
    EXPECT_EQ(stats.accepted, 2U);
    EXPECT_EQ(stats.served, 1U);
    EXPECT_EQ(stats.rejected, 1U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(first.logits.numel(), 10);
}

// ------------------------------------------------ slot release ordering ---

TEST(ServingPool, SessionReportArrivesAfterItsSlotIsFreed) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.seed = 13};
    const auto inputs = make_inputs(2);

    // One worker, zero queue: the only slot is the finished session's. A
    // serve() made from its report must find that slot free (a client
    // that reconnects the moment it sees the report must not get BUSY).
    net::TcpListener listener(0);  // outlives the pool: the observer accepts
    ServingPool* pool_ptr = nullptr;
    std::atomic<int> reports{0};
    std::atomic<bool> admitted_from_report{false};
    ServingPool pool(compiled, config, {.workers = 1, .queue_capacity = 0},
                     [&](const ServingPool::SessionReport&) {
                         if (reports.fetch_add(1) == 0)
                             admitted_from_report = pool_ptr->serve(listener.accept(30'000));
                     });
    pool_ptr = &pool;

    ClientRun first;
    std::thread first_client(
        [&] { first = run_weightless_client(listener.port(), config, inputs[0]); });
    ASSERT_TRUE(pool.serve(listener.accept(30'000)));

    // Connected now, accepted only by the first session's report.
    ClientRun second;
    std::string second_error;
    std::thread second_client([&] {
        try {
            second = run_weightless_client(listener.port(), config, inputs[1]);
        } catch (const std::exception& e) {
            second_error = e.what();
        }
    });
    first_client.join();
    second_client.join();
    pool.drain();

    EXPECT_TRUE(admitted_from_report.load());
    EXPECT_TRUE(second_error.empty()) << second_error;
    EXPECT_EQ(first.logits.numel(), 10);
    EXPECT_EQ(second.logits.numel(), 10);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.served, 2U);
    EXPECT_EQ(stats.rejected, 0U);
    EXPECT_EQ(reports.load(), 2);
}

// ------------------------------------------------------- graceful drain ---

TEST(ServingPool, DrainFinishesInFlightSessionsAndRefusesNewOnes) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.seed = 11};

    auto pool = std::make_unique<ServingPool>(
        compiled, config, ServingPool::Options{.workers = 2, .queue_capacity = 2});
    net::TcpListener listener(0);

    constexpr std::size_t kClients = 2;
    const auto inputs = make_inputs(kClients);
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            runs[i] = run_weightless_client(listener.port(), config, inputs[i]);
        });
    for (std::size_t i = 0; i < kClients; ++i)
        ASSERT_TRUE(pool->serve(listener.accept(30'000)));

    // Drain while both sessions are in flight: every admitted session
    // must still complete — no client loses its inference.
    pool->drain();
    for (auto& t : clients) t.join();
    EXPECT_EQ(pool->stats().served, kClients);
    for (std::size_t i = 0; i < kClients; ++i) EXPECT_EQ(runs[i].logits.numel(), 10) << i;

    // After the drain the pool only refuses — with the same typed frame.
    std::thread late_client([&] {
        auto transport = net::connect("127.0.0.1", listener.port(), 30'000);
        transport->set_recv_timeout(30'000);
        EXPECT_THROW((void)transport->recv_artifact_bytes(), net::ServerBusy);
        transport->close();
    });
    EXPECT_FALSE(pool->serve(listener.accept(30'000)));
    late_client.join();
    EXPECT_EQ(pool->stats().rejected, 1U);
    pool.reset();  // destructor drains again: idempotent
}

// ----------------------------------------------------------- validation ---

TEST(ServingPool, RejectsBadOptionsAtTheApiBoundary) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{};
    EXPECT_THROW(ServingPool(compiled, config, {.workers = -1}), Error);
    EXPECT_THROW(ServingPool(compiled, config, {.workers = 2000}), Error);
    EXPECT_THROW(ServingPool(compiled, config, {.queue_capacity = -1}), Error);
    EXPECT_THROW(ServingPool(compiled, config, {.tail_window_ms = -5}), Error);
    EXPECT_THROW(ServingPool(compiled, config, {.recv_timeout_ms = -1}), Error);
    EXPECT_THROW(ServingPool(compiled, config, {.handshake_timeout_ms = -1}), Error);
}

}  // namespace
}  // namespace c2pi::pi
