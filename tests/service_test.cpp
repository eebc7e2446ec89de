// Serve-many API tests: one const CompiledModel shared by many concurrent
// ServerSession/ClientSession pairs must produce bit-identical logits to
// sequential runs; option validation must reject bad formats/ring
// degrees/boundaries at the API boundary with typed c2pi::Error.
// Cross-client tail batching is covered in serving_pool_test.cpp.

#include <gtest/gtest.h>

#include <thread>

#include "nn/layers.hpp"
#include "nn/graph.hpp"
#include "pi/session.hpp"

namespace c2pi::pi {
namespace {

/// Small conv net: 2 convs + 2 FCs on 16x16 RGB inputs (same topology as
/// pi_test.cpp's model — big enough to exercise conv, pooling, ReLU and
/// FC protocols, small enough for fast MPC in tests).
nn::Graph make_test_model(std::uint64_t seed = 7) {
    Rng rng(seed);
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

CompiledModel::Options small_compile_options() {
    CompiledModel::Options opts;
    opts.input_chw = {3, 16, 16};
    opts.he_ring_degree = 1024;
    return opts;
}

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
    const nn::Graph model = make_test_model();
    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 2, .after_relu = true};
    const CompiledModel compiled(model, copts);  // compiled ONCE, shared const
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
    const nn::Graph model = make_test_model();
    const CompiledModel compiled(model, small_compile_options());
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
    const nn::Graph model = make_test_model();
    for (const int frac_bits : {0, -3, 30, 40}) {
        auto copts = small_compile_options();
        copts.fmt.frac_bits = frac_bits;
        EXPECT_THROW(CompiledModel(model, copts), Error) << "frac_bits=" << frac_bits;
    }
    auto ok = small_compile_options();
    ok.fmt.frac_bits = 12;
    EXPECT_NO_THROW(CompiledModel(model, ok));
}

TEST(CompiledModelValidation, RejectsNonPowerOfTwoRingDegree) {
    const nn::Graph model = make_test_model();
    for (const std::size_t n : {std::size_t{0}, std::size_t{1000}, std::size_t{4097}}) {
        auto copts = small_compile_options();
        copts.he_ring_degree = n;
        EXPECT_THROW(CompiledModel(model, copts), Error) << "n=" << n;
    }
}

TEST(CompiledModelValidation, RejectsBoundaryPastLastLinearOp) {
    const nn::Graph model = make_test_model();  // 4 linear ops
    for (const std::int64_t idx : {std::int64_t{0}, std::int64_t{5}, std::int64_t{-1}}) {
        auto copts = small_compile_options();
        copts.boundary = nn::CutPoint{.linear_index = idx, .after_relu = false};
        EXPECT_THROW(CompiledModel(model, copts), Error) << "linear_index=" << idx;
    }
    // A ".5" position whose linear op has no following ReLU is also caught
    // at compile time (the final classifier op here).
    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 4, .after_relu = true};
    EXPECT_THROW(CompiledModel(model, copts), Error);
}

TEST(CompiledModelValidation, RejectsBadInputShape) {
    const nn::Graph model = make_test_model();
    auto copts = small_compile_options();
    copts.input_chw = {3, 16};  // not [C,H,W]
    EXPECT_THROW(CompiledModel(model, copts), Error);
}

TEST(SessionValidation, RejectsMismatchedClientInput) {
    const nn::Graph model = make_test_model();
    const CompiledModel compiled(model, small_compile_options());
    Rng rng(1);
    const Tensor wrong = Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
    EXPECT_THROW((void)run_private_inference(compiled, SessionConfig{}, wrong), Error);
}

}  // namespace
}  // namespace c2pi::pi
