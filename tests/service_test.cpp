// Serve-many API tests: one const CompiledModel shared by many concurrent
// ServerSession/ClientSession pairs must produce bit-identical logits to
// sequential runs; option validation must reject bad formats/ring
// degrees/boundaries at the API boundary with typed c2pi::Error.
// Cross-client tail batching is covered in serving_pool_test.cpp.

#include <gtest/gtest.h>

#include <thread>

#include "pi/session.hpp"
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

// ----------------------------------------------------------- concurrency ---

TEST(CompiledModelSharing, ConcurrentSessionsMatchSequentialBitwise) {
    const nn::Graph model = demo::make_demo_model();
    // Compiled ONCE, shared const.
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/false));
    const SessionConfig config{.noise_lambda = 0.05F, .seed = 42};

    constexpr std::size_t kSessions = 4;
    const auto inputs = make_inputs(kSessions);

    // Serial reference runs.
    std::vector<Tensor> sequential;
    for (const auto& x : inputs)
        sequential.push_back(run_private_inference(compiled, config, x).logits);

    // The same runs, all in flight at once against the same const artifact
    // (each run itself spawns a server and a client thread).
    std::vector<Tensor> concurrent(kSessions);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSessions; ++i)
        threads.emplace_back([&, i] {
            concurrent[i] = run_private_inference(compiled, config, inputs[i]).logits;
        });
    for (auto& t : threads) t.join();

    for (std::size_t i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(concurrent[i].same_shape(sequential[i])) << "session " << i;
        EXPECT_TRUE(concurrent[i].allclose(sequential[i], 0.0F))
            << "session " << i << " diverged from its sequential twin";
    }
}

TEST(CompiledModelSharing, FullPiConcurrentSessionsAlsoDeterministic) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/true));
    const SessionConfig config{.seed = 9};

    constexpr std::size_t kSessions = 4;
    const auto inputs = make_inputs(kSessions);
    std::vector<Tensor> sequential;
    for (const auto& x : inputs)
        sequential.push_back(run_private_inference(compiled, config, x).logits);

    std::vector<Tensor> concurrent(kSessions);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSessions; ++i)
        threads.emplace_back([&, i] {
            concurrent[i] = run_private_inference(compiled, config, inputs[i]).logits;
        });
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < kSessions; ++i)
        EXPECT_TRUE(concurrent[i].allclose(sequential[i], 0.0F)) << "session " << i;
}

// ------------------------------------------------------------ validation ---

TEST(CompiledModelValidation, RejectsBadFixedPointFormat) {
    const nn::Graph model = demo::make_demo_model();
    for (const int frac_bits : {0, -3, 30, 40}) {
        auto copts = demo::demo_compile_options(/*full_pi=*/true);
        copts.fmt.frac_bits = frac_bits;
        EXPECT_THROW(CompiledModel(model, copts), Error) << "frac_bits=" << frac_bits;
    }
    auto ok = demo::demo_compile_options(/*full_pi=*/true);
    ok.fmt.frac_bits = 12;
    EXPECT_NO_THROW(CompiledModel(model, ok));
}

TEST(CompiledModelValidation, RejectsNonPowerOfTwoRingDegree) {
    const nn::Graph model = demo::make_demo_model();
    for (const std::size_t n : {std::size_t{0}, std::size_t{1000}, std::size_t{4097}}) {
        auto copts = demo::demo_compile_options(/*full_pi=*/true);
        copts.he_ring_degree = n;
        EXPECT_THROW(CompiledModel(model, copts), Error) << "n=" << n;
    }
}

TEST(CompiledModelValidation, RejectsBoundaryPastLastLinearOp) {
    const nn::Graph model = demo::make_demo_model();  // 4 linear ops
    for (const std::int64_t idx : {std::int64_t{0}, std::int64_t{5}, std::int64_t{-1}}) {
        auto copts = demo::demo_compile_options(/*full_pi=*/true);
        copts.boundary = nn::CutPoint{.linear_index = idx, .after_relu = false};
        EXPECT_THROW(CompiledModel(model, copts), Error) << "linear_index=" << idx;
    }
    // A ".5" position whose linear op has no following ReLU is also caught
    // at compile time (the final classifier op here).
    auto copts = demo::demo_compile_options(/*full_pi=*/true);
    copts.boundary = nn::CutPoint{.linear_index = 4, .after_relu = true};
    EXPECT_THROW(CompiledModel(model, copts), Error);
}

TEST(CompiledModelValidation, RejectsBadInputShape) {
    const nn::Graph model = demo::make_demo_model();
    auto copts = demo::demo_compile_options(/*full_pi=*/true);
    copts.input_chw = {3, 16};  // not [C,H,W]
    EXPECT_THROW(CompiledModel(model, copts), Error);
}

TEST(SessionValidation, RejectsMismatchedClientInput) {
    const nn::Graph model = demo::make_demo_model();
    const CompiledModel compiled(model, demo::demo_compile_options(/*full_pi=*/true));
    Rng rng(1);
    const Tensor wrong = Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
    EXPECT_THROW((void)run_private_inference(compiled, SessionConfig{}, wrong), Error);
}

}  // namespace
}  // namespace c2pi::pi
