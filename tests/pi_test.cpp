// Integration tests for the compile-once/serve-many PI API and the C2PI
// framework: full PI (both backends) must reproduce plaintext inference
// within fixed-point tolerance; C2PI must agree with plaintext when noise
// is off, hide the clear layers, and cost less than full PI; Algorithm 1
// is unit-tested with a scripted IDPA. Concurrency and batching tests
// for the serving API live in service_test.cpp and serving_pool_test.cpp;
// the ModelArtifact codec and the weightless-client path live in
// artifact_test.cpp.

#include <gtest/gtest.h>

#include "attack/idpa.hpp"
#include "crypto/ot.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "pi/boundary.hpp"
#include "pi/session.hpp"

namespace c2pi::pi {
namespace {

/// Small conv net: 2 convs + 2 FCs on 16x16 RGB inputs — big enough to
/// exercise conv groups, pooling, ReLU and FC protocols, small enough for
/// fast MPC in tests.
nn::Sequential make_test_model(std::uint64_t seed = 7) {
    Rng rng(seed);
    nn::Sequential m;
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

Tensor make_test_input(std::uint64_t seed = 8) {
    Rng rng(seed);
    return Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
}

CompiledModel::Options small_compile_options() {
    CompiledModel::Options opts;
    opts.input_chw = {3, 16, 16};
    opts.he_ring_degree = 1024;
    return opts;
}

class FullPiBackendTest : public ::testing::TestWithParam<PiBackend> {};

TEST_P(FullPiBackendTest, MatchesPlaintextInference) {
    const nn::Sequential model = make_test_model();
    const Tensor x = make_test_input();
    const Tensor want = model.infer(x);

    const CompiledModel compiled(model, small_compile_options());
    const PiResult res =
        run_private_inference(compiled, SessionConfig{.backend = GetParam()}, x);
    ASSERT_TRUE(res.logits.same_shape(want));
    for (std::int64_t i = 0; i < want.numel(); ++i)
        EXPECT_NEAR(res.logits[i], want[i], 0.02F) << "logit " << i;
    EXPECT_EQ(res.hidden_linear_ops, 0);
    EXPECT_EQ(res.crypto_linear_ops, 4);
}

INSTANTIATE_TEST_SUITE_P(Backends, FullPiBackendTest,
                         ::testing::Values(PiBackend::kCheetah, PiBackend::kDelphi));

TEST(Session, CheetahIsOnlineDominated) {
    const nn::Sequential model = make_test_model();
    const CompiledModel compiled(model, small_compile_options());
    const PiResult res = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kCheetah}, make_test_input());
    // Only the dealer setup (plus its trailing nonlinear-backend byte) is
    // charged offline for Cheetah.
    EXPECT_EQ(res.stats.offline_bytes, crypto::OtSetupPair::setup_traffic_bytes() + 1);
    EXPECT_GT(res.stats.online_bytes, res.stats.offline_bytes);
}

TEST(Session, DelphiMovesWorkOffline) {
    const nn::Sequential model = make_test_model();
    const CompiledModel compiled(model, small_compile_options());
    const PiResult res = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kDelphi}, make_test_input());
    // HE pairs + garbled tables offline: the offline phase dominates.
    EXPECT_GT(res.stats.offline_bytes, res.stats.online_bytes);
}

TEST(Session, DelphiCostsMoreTrafficThanCheetah) {
    const nn::Sequential model = make_test_model();
    // One compiled artifact serves both backends: the plan and encoded
    // weights are backend-agnostic, only the session protocol differs.
    const CompiledModel compiled(model, small_compile_options());
    const auto c = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kCheetah}, make_test_input());
    const auto d = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kDelphi}, make_test_input());
    EXPECT_GT(d.stats.total_bytes(), c.stats.total_bytes());
}

TEST(Session, WanLatencyExceedsLan) {
    const nn::Sequential model = make_test_model();
    const CompiledModel compiled(model, small_compile_options());
    const PiResult res = run_private_inference(compiled, SessionConfig{}, make_test_input());
    EXPECT_GT(res.stats.latency_seconds(net::NetworkModel::wan()),
              res.stats.latency_seconds(net::NetworkModel::lan()));
}

TEST(C2pi, NoiselessBoundaryMatchesPlaintext) {
    const nn::Sequential model = make_test_model();
    const Tensor x = make_test_input();
    const Tensor want = model.infer(x);

    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 2, .after_relu = true};
    const CompiledModel compiled(model, copts);
    const PiResult res =
        run_private_inference(compiled, SessionConfig{.noise_lambda = 0.0F}, x);
    for (std::int64_t i = 0; i < want.numel(); ++i)
        EXPECT_NEAR(res.logits[i], want[i], 0.02F) << i;
    EXPECT_EQ(res.crypto_linear_ops, 2);
    EXPECT_EQ(res.hidden_linear_ops, 2);
}

TEST(C2pi, CostsLessThanFullPi) {
    const nn::Sequential model = make_test_model();
    const Tensor x = make_test_input();
    const CompiledModel full(model, small_compile_options());
    const auto full_res = run_private_inference(full, SessionConfig{}, x);

    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    const CompiledModel compiled(model, copts);
    const auto c2pi_res =
        run_private_inference(compiled, SessionConfig{.noise_lambda = 0.1F}, x);

    EXPECT_LT(c2pi_res.stats.total_bytes(), full_res.stats.total_bytes());
    EXPECT_LT(c2pi_res.stats.total_flights(), full_res.stats.total_flights());
}

TEST(C2pi, NoisePerturbsButPreservesShape) {
    const nn::Sequential model = make_test_model();
    const Tensor x = make_test_input();
    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 2, .after_relu = true};
    const CompiledModel compiled(model, copts);
    const auto res = run_private_inference(compiled, SessionConfig{.noise_lambda = 0.3F}, x);
    const Tensor want = model.infer(x);
    ASSERT_TRUE(res.logits.same_shape(want));
    // With noise the logits differ, but remain finite and plausible.
    float diff = 0.0F;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(res.logits[i]));
        diff += std::fabs(res.logits[i] - want[i]);
    }
    EXPECT_GT(diff, 0.0F);
}

TEST(C2pi, DelphiBackendAlsoSupportsBoundary) {
    const nn::Sequential model = make_test_model();
    const Tensor x = make_test_input();
    const Tensor want = model.infer(x);
    auto copts = small_compile_options();
    copts.boundary = nn::CutPoint{.linear_index = 2, .after_relu = false};
    const CompiledModel compiled(model, copts);
    const auto res = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kDelphi, .noise_lambda = 0.0F}, x);
    for (std::int64_t i = 0; i < want.numel(); ++i) EXPECT_NEAR(res.logits[i], want[i], 0.02F);
}

// ------------------------------------------------------------ Algorithm 1 ---

/// Scripted IDPA: "succeeds" (returns the true image) iff the cut is at or
/// before `success_until`; otherwise returns noise. Lets us unit-test the
/// search logic deterministically.
class ScriptedIdpa final : public attack::Idpa {
public:
    ScriptedIdpa(double success_until, const data::SyntheticImageDataset& dataset)
        : success_until_(success_until), dataset_(&dataset) {}

    void fit(nn::Graph&, const nn::CutPoint&, const data::SyntheticImageDataset&,
             float) override {}

    Tensor recover(nn::Graph&, const nn::CutPoint& cut, const Tensor& activation) override {
        if (cut.as_decimal() <= success_until_) {
            // Return the test image whose activation this is: the harness
            // evaluates images in order, so emulate success by returning a
            // copy of the matching truth image via index bookkeeping.
            const auto& img = dataset_->test()[index_++ % dataset_->test().size()].image;
            return img;
        }
        Rng rng(99 + index_++);
        (void)activation;
        const auto& shape = dataset_->test()[0].image.shape();
        return Tensor::uniform(shape, rng, 0.0F, 1.0F);
    }

    [[nodiscard]] std::string name() const override { return "scripted"; }

private:
    double success_until_;
    const data::SyntheticImageDataset* dataset_;
    std::size_t index_ = 0;
};

struct BoundaryFixture {
    data::SyntheticImageDataset dataset = [] {
        auto cfg = data::DatasetConfig::cifar10_like();
        cfg.train_size = 96;
        cfg.test_size = 48;
        cfg.image_size = 16;
        return data::SyntheticImageDataset(cfg);
    }();
    nn::Sequential model = [] {
        nn::ModelConfig cfg;
        cfg.width_multiplier = 0.1F;
        cfg.input_hw = 16;
        return nn::make_alexnet(cfg);
    }();

    BoundaryFixture() {
        nn::TrainConfig tcfg;
        tcfg.epochs = 4;
        tcfg.lr = 0.03F;
        (void)nn::train_classifier(model, dataset, tcfg);
    }
};

TEST(BoundarySearch, CandidateCutsExcludeClassifier) {
    BoundaryFixture fx;
    const auto cuts = candidate_cuts(fx.model, /*include_half_points=*/true);
    ASSERT_FALSE(cuts.empty());
    // AlexNet: 8 linear ops -> cuts over ops 1..7, each with a ReLU twin.
    EXPECT_EQ(cuts.size(), 14U);
    EXPECT_EQ(cuts.front().linear_index, 1);
    EXPECT_FALSE(cuts.front().after_relu);
    EXPECT_EQ(cuts.back().linear_index, 7);
    EXPECT_TRUE(cuts.back().after_relu);
}

TEST(BoundarySearch, FindsBoundaryAfterAttackSuccessPoint) {
    BoundaryFixture fx;
    BoundaryConfig cfg;
    cfg.ssim_threshold = 0.3;
    cfg.noise_lambda = 0.0F;
    cfg.max_accuracy_drop = 1.0;  // phase 2 always satisfied
    cfg.attack_eval_samples = 4;
    // Attack succeeds up to cut 3.5; the boundary must be the next cut (4).
    const auto result = search_boundary(
        fx.model, fx.dataset, [&] { return std::make_unique<ScriptedIdpa>(3.5, fx.dataset); }, cfg);
    EXPECT_EQ(result.boundary.linear_index, 4);
    EXPECT_FALSE(result.boundary.after_relu);
}

TEST(BoundarySearch, AttackNeverSucceedsGivesEarliestCut) {
    BoundaryFixture fx;
    BoundaryConfig cfg;
    cfg.max_accuracy_drop = 1.0;
    cfg.attack_eval_samples = 4;
    cfg.noise_lambda = 0.0F;
    const auto result = search_boundary(
        fx.model, fx.dataset, [&] { return std::make_unique<ScriptedIdpa>(0.0, fx.dataset); }, cfg);
    EXPECT_EQ(result.boundary.linear_index, 1);
    EXPECT_FALSE(result.boundary.after_relu);
}

TEST(BoundarySearch, AccuracyPhasePushesBoundaryLater) {
    BoundaryFixture fx;
    BoundaryConfig cfg;
    cfg.attack_eval_samples = 4;
    cfg.noise_lambda = 30.0F;       // catastrophic noise at every cut
    cfg.max_accuracy_drop = 0.05;   // demand near-baseline accuracy
    const auto result = search_boundary(
        fx.model, fx.dataset, [&] { return std::make_unique<ScriptedIdpa>(1.0, fx.dataset); }, cfg);
    // Phase 1 stops at cut 1 (success) -> potential boundary 1.5; heavy
    // noise pushes phase 2 strictly later than that.
    EXPECT_GT(result.boundary.as_decimal(), 1.5);
    EXPECT_FALSE(result.accuracy_sweep.empty());
}

TEST(BoundarySearch, SsimSweepIsTailToHead) {
    BoundaryFixture fx;
    BoundaryConfig cfg;
    cfg.max_accuracy_drop = 1.0;
    cfg.attack_eval_samples = 4;
    cfg.noise_lambda = 0.0F;
    const auto result = search_boundary(
        fx.model, fx.dataset, [&] { return std::make_unique<ScriptedIdpa>(2.0, fx.dataset); }, cfg);
    ASSERT_GE(result.ssim_sweep.size(), 2U);
    for (std::size_t i = 1; i < result.ssim_sweep.size(); ++i)
        EXPECT_GT(result.ssim_sweep[i - 1].cut.as_decimal(),
                  result.ssim_sweep[i].cut.as_decimal());
    // The last probe is the first success.
    EXPECT_GE(result.ssim_sweep.back().avg_ssim, cfg.ssim_threshold);
}

TEST(C2piPipeline, EndToEndWithScriptedAttack) {
    // Algorithm 1 -> compile once -> private inference, with the boundary
    // config's lambda handed to the session.
    BoundaryFixture fx;
    BoundaryConfig cfg;
    cfg.attack_eval_samples = 4;
    cfg.max_accuracy_drop = 1.0;
    cfg.noise_lambda = 0.05F;
    const auto found = search_boundary(
        fx.model, fx.dataset, [&] { return std::make_unique<ScriptedIdpa>(2.0, fx.dataset); }, cfg);
    EXPECT_GT(found.boundary.as_decimal(), 2.0);

    const auto& img = fx.dataset.test()[0].image;
    const CompiledModel compiled(
        fx.model, {.input_chw = img.shape(), .boundary = found.boundary, .he_ring_degree = 1024});
    const auto res = run_private_inference(
        compiled, SessionConfig{.backend = PiBackend::kCheetah, .noise_lambda = cfg.noise_lambda},
        img.reshaped({1, 3, 16, 16}));
    EXPECT_EQ(res.logits.dim(1), 10);
    EXPECT_GT(res.hidden_linear_ops, 0);
}

TEST(Plan, NonTilingPoolGeometryThrowsTypedError) {
    // (5 - 2) % 2 != 0: the window doesn't tile. The old planner silently
    // floored the output shape, disagreeing with plaintext inference.
    nn::Sequential m;
    m.emplace<nn::Relu>();
    m.emplace<nn::MaxPool2d>(2, 2);
    try {
        (void)plan_layers(m, {1, 5, 5}, m.size());
        FAIL() << "non-tiling pool must throw";
    } catch (const PoolGeometryError& e) {
        EXPECT_EQ(e.layer_index, 1U);
        EXPECT_NE(std::string(e.what()).find("does not tile"), std::string::npos) << e.what();
    }
}

// -------------------------------------------------------- residual models ---

nn::Graph make_resnet_under_test() {
    nn::ModelConfig cfg;
    cfg.input_hw = 16;
    cfg.width_multiplier = 0.125F;
    return nn::make_resnet9(cfg);
}

/// Boundary past the first residual block: the crypto prefix carries a
/// secret-shared skip-add, the clear tail the second block.
CompiledModel::Options resnet_compile_options() {
    CompiledModel::Options opts;
    opts.input_chw = {3, 16, 16};
    opts.he_ring_degree = 1024;
    opts.boundary = nn::CutPoint{.linear_index = 5, .after_relu = false};
    return opts;
}

TEST(ResNetPi, CrossBackendLogitsBitIdentical) {
    const nn::Graph model = make_resnet_under_test();
    const CompiledModel compiled(model, resnet_compile_options());
    bool has_add = false;
    for (const auto& p : compiled.artifact().plan) has_add |= p.op == PlanOp::kResidualAdd;
    ASSERT_TRUE(has_add) << "crypto prefix must contain the block's skip-add";

    Rng rng(700);
    const Tensor input = Tensor::uniform({1, 3, 16, 16}, rng, 0.0F, 1.0F);
    Tensor reference;
    for (const auto nonlinear :
         {mpc::NonlinearBackend::kGarbledCircuit, mpc::NonlinearBackend::kOtMillionaire,
          mpc::NonlinearBackend::kFss}) {
        for (const bool pipeline : {true, false}) {
            SessionConfig config{.seed = 7};
            config.nonlinear = nonlinear;
            config.pipeline = pipeline;
            const PiResult res = run_private_inference(compiled, config, input);
            if (reference.numel() == 0) {
                reference = res.logits;
            } else {
                ASSERT_TRUE(res.logits.same_shape(reference));
                EXPECT_TRUE(res.logits.allclose(reference, 0.0F))
                    << "nonlinear backend / pipelining changed resnet logits";
            }
        }
    }
    // And the shared secret reconstructs the plaintext model (fixed-point
    // error only).
    const Tensor want = model.infer(input);
    ASSERT_TRUE(reference.same_shape(want));
    EXPECT_TRUE(reference.allclose(want, 0.05F));
}

TEST(ResNetPi, StridedProjectionBlockMatchesPlaintext) {
    // A downsampling basic block (resnet18's stage transition): stride-2
    // main path, 1x1 stride-2 projection skip. Exercises strided conv
    // planning and a residual whose operands are both computed nodes.
    Rng rng(41);
    nn::Graph g;
    const auto c0 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 4, ops::ConvSpec{.kernel = 3, .stride = 2, .pad = 1},
                                     rng),
        nn::Graph::kInput);
    const auto r0 = g.add_node(std::make_unique<nn::Relu>(), c0);
    const auto c1 = g.add_node(
        std::make_unique<nn::Conv2d>(4, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1},
                                     rng),
        r0);
    const auto proj = g.add_node(
        std::make_unique<nn::Conv2d>(2, 4, ops::ConvSpec{.kernel = 1, .stride = 2, .pad = 0},
                                     rng),
        nn::Graph::kInput);
    auto h = g.add_residual(c1, proj);
    h = g.add_node(std::make_unique<nn::Relu>(), h);
    h = g.add_node(std::make_unique<nn::Flatten>(), h);
    (void)g.add_node(std::make_unique<nn::Linear>(4 * 4 * 4, 3, rng), h);

    CompiledModel::Options opts;
    opts.input_chw = {2, 8, 8};
    opts.he_ring_degree = 1024;  // full PI
    const CompiledModel compiled(g, opts);
    Rng in_rng(42);
    const Tensor input = Tensor::uniform({1, 2, 8, 8}, in_rng, 0.0F, 1.0F);
    const PiResult res = run_private_inference(compiled, SessionConfig{.seed = 5}, input);
    const Tensor want = g.infer(input);
    ASSERT_TRUE(res.logits.same_shape(want));
    EXPECT_TRUE(res.logits.allclose(want, 0.05F));
}

TEST(ResNetPi, ResidualAddCostsZeroCommunication) {
    // Two models identical except for the skip-add: same conv/ReLU/FC
    // shapes, one with a residual edge. The add runs locally on shares,
    // so every traffic counter must match the chain model exactly.
    const auto build = [](bool with_skip) {
        Rng rng(31);
        nn::Graph g;
        const auto c0 = g.add_node(
            std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1},
                                         rng),
            nn::Graph::kInput);
        const auto r0 = g.add_node(std::make_unique<nn::Relu>(), c0);
        const auto c1 = g.add_node(
            std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1},
                                         rng),
            r0);
        auto h = with_skip ? g.add_residual(c1, c0) : c1;
        h = g.add_node(std::make_unique<nn::Relu>(), h);
        h = g.add_node(std::make_unique<nn::Flatten>(), h);
        (void)g.add_node(std::make_unique<nn::Linear>(2 * 6 * 6, 4, rng), h);
        return g;
    };
    CompiledModel::Options opts;
    opts.input_chw = {2, 6, 6};
    opts.he_ring_degree = 1024;  // full PI: the add sits inside the crypto region

    const nn::Graph skip_model = build(true);
    const nn::Graph chain_model = build(false);
    const CompiledModel with_skip(skip_model, opts);
    const CompiledModel chain(chain_model, opts);
    Rng rng(32);
    const Tensor input = Tensor::uniform({1, 2, 6, 6}, rng, 0.0F, 1.0F);
    for (const auto backend : {PiBackend::kCheetah, PiBackend::kDelphi}) {
        const SessionConfig config{.backend = backend, .seed = 3};
        const PiResult a = run_private_inference(with_skip, config, input);
        const PiResult b = run_private_inference(chain, config, input);
        EXPECT_EQ(a.stats.preprocess_bytes, b.stats.preprocess_bytes);
        EXPECT_EQ(a.stats.offline_bytes, b.stats.offline_bytes);
        EXPECT_EQ(a.stats.online_bytes, b.stats.online_bytes) << "skip-add leaked online bytes";
        EXPECT_EQ(a.stats.preprocess_flights, b.stats.preprocess_flights);
        EXPECT_EQ(a.stats.offline_flights, b.stats.offline_flights);
        EXPECT_EQ(a.stats.online_flights, b.stats.online_flights)
            << "skip-add added a communication round";
    }
}

}  // namespace
}  // namespace c2pi::pi
