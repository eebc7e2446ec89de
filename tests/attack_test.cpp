// Tests for the IDPA attacks: MLA recovers shallow-layer inputs, inverse
// networks build correct block structures and train, DINA's distillation
// machinery runs, and the depth phenomenon the paper exploits holds
// (shallow cuts are easier to invert than deep cuts).

#include <gtest/gtest.h>

#include <cmath>

#include "attack/inverse.hpp"
#include "attack/mla.hpp"
#include "crypto/hash.hpp"
#include "metrics/ssim.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"

namespace c2pi::attack {
namespace {

struct AttackFixture {
    data::SyntheticImageDataset dataset = [] {
        auto cfg = data::DatasetConfig::cifar10_like();
        cfg.train_size = 160;
        cfg.test_size = 40;
        cfg.image_size = 16;
        return data::SyntheticImageDataset(cfg);
    }();
    nn::Graph model = [] {
        nn::ModelConfig cfg;
        cfg.width_multiplier = 0.1F;
        cfg.input_hw = 16;
        return nn::make_alexnet(cfg);
    }();

    AttackFixture() {
        nn::TrainConfig tcfg;
        tcfg.epochs = 4;
        tcfg.lr = 0.03F;
        (void)nn::train_classifier(model, dataset, tcfg);
    }

    InverseConfig fast_inverse_config() const {
        InverseConfig cfg;
        cfg.epochs = 6;
        cfg.train_samples = 128;
        cfg.batch_size = 8;
        return cfg;
    }
};

TEST(NoisedActivation, AddsBoundedNoise) {
    AttackFixture fx;
    Rng rng(1);
    const nn::CutPoint cut{.linear_index = 1, .after_relu = true};
    const auto& img = fx.dataset.test()[0].image;
    const Tensor clean = noised_activation(fx.model, cut, img, 0.0F, rng);
    const Tensor noisy = noised_activation(fx.model, cut, img, 0.2F, rng);
    ASSERT_TRUE(clean.same_shape(noisy));
    float max_diff = 0.0F;
    for (std::int64_t i = 0; i < clean.numel(); ++i)
        max_diff = std::max(max_diff, std::fabs(clean[i] - noisy[i]));
    EXPECT_GT(max_diff, 0.0F);
    EXPECT_LE(max_diff, 0.2F + 1e-5F);
}

TEST(Mla, RecoversShallowActivation) {
    AttackFixture fx;
    Rng rng(2);
    const nn::CutPoint cut{.linear_index = 1, .after_relu = false};
    const auto& img = fx.dataset.test()[0].image;
    const Tensor act = noised_activation(fx.model, cut, img, 0.0F, rng);
    MlaAttack mla(MlaConfig{.iterations = 200, .lr = 0.08F, .seed = 3});
    Tensor guess = mla.recover(fx.model, cut, act);
    guess = guess.reshaped({3, 16, 16});
    // Recovery from the very first conv layer should be quite close.
    EXPECT_GT(metrics::ssim(img, guess), 0.5) << "shallow MLA should succeed";
}

TEST(Mla, DeepCutIsHarderThanShallowCut) {
    AttackFixture fx;
    Rng rng(4);
    const auto& img = fx.dataset.test()[1].image;
    const nn::CutPoint shallow{.linear_index = 1, .after_relu = false};
    const nn::CutPoint deep{.linear_index = 5, .after_relu = true};
    MlaAttack mla(MlaConfig{.iterations = 150, .lr = 0.08F, .seed = 5});
    const Tensor act_s = noised_activation(fx.model, shallow, img, 0.0F, rng);
    const Tensor act_d = noised_activation(fx.model, deep, img, 0.0F, rng);
    const double ssim_s =
        metrics::ssim(img, mla.recover(fx.model, shallow, act_s).reshaped({3, 16, 16}));
    const double ssim_d =
        metrics::ssim(img, mla.recover(fx.model, deep, act_d).reshaped({3, 16, 16}));
    EXPECT_GT(ssim_s, ssim_d);
}

TEST(InverseNet, BuildsOneBlockPerSubBlock) {
    AttackFixture fx;
    InverseNetAttack dina(InverseKind::kDistilled, fx.fast_inverse_config());
    // Cut 3.5 in AlexNet: sub-blocks end at ReLUs 1.5, 2.5, 3.5 -> 3 blocks.
    dina.fit(fx.model, {.linear_index = 3, .after_relu = true}, fx.dataset, 0.0F);
    EXPECT_EQ(dina.num_blocks(), 3U);
}

TEST(InverseNet, CutAtLinearOpAddsPartialBlock) {
    AttackFixture fx;
    InverseNetAttack eina(InverseKind::kResidual, fx.fast_inverse_config());
    // Cut 2 (pre-ReLU): sub-blocks end at ReLU 1.5 and at conv 2 -> 2 blocks.
    eina.fit(fx.model, {.linear_index = 2, .after_relu = false}, fx.dataset, 0.0F);
    EXPECT_EQ(eina.num_blocks(), 2U);
}

TEST(InverseNet, RecoverProducesImageShapedOutput) {
    AttackFixture fx;
    Rng rng(6);
    const nn::CutPoint cut{.linear_index = 2, .after_relu = true};
    InverseNetAttack dina(InverseKind::kDistilled, fx.fast_inverse_config());
    dina.fit(fx.model, cut, fx.dataset, 0.1F);
    const auto& img = fx.dataset.test()[2].image;
    const Tensor act = noised_activation(fx.model, cut, img, 0.1F, rng);
    const Tensor guess = dina.recover(fx.model, cut, act);
    EXPECT_EQ(guess.numel(), img.numel());
    for (std::int64_t i = 0; i < guess.numel(); ++i) {
        EXPECT_GE(guess[i], 0.0F);
        EXPECT_LE(guess[i], 1.0F);
    }
}

TEST(InverseNet, TrainedAttackBeatsUntrainedAtShallowCut) {
    AttackFixture fx;
    const nn::CutPoint cut{.linear_index = 1, .after_relu = true};
    auto cfg = fx.fast_inverse_config();
    InverseNetAttack trained(InverseKind::kDistilled, cfg);
    const auto eval = evaluate_idpa(trained, fx.model, cut, fx.dataset, 8, 0.0F, 77);
    // Inverting one conv+relu block must comfortably beat random noise.
    EXPECT_GT(eval.avg_ssim, 0.35) << "DINA should invert conv1";
    EXPECT_EQ(eval.samples, 8U);
}

TEST(InverseNet, CrossesFlattenBoundaryForFcCuts) {
    AttackFixture fx;
    const nn::CutPoint cut{.linear_index = 6, .after_relu = true};  // first FC
    InverseNetAttack dina(InverseKind::kDistilled, fx.fast_inverse_config());
    Rng rng(8);
    dina.fit(fx.model, cut, fx.dataset, 0.0F);
    const auto& img = fx.dataset.test()[3].image;
    const Tensor act = noised_activation(fx.model, cut, img, 0.0F, rng);
    const Tensor guess = dina.recover(fx.model, cut, act);
    EXPECT_EQ(guess.numel(), img.numel());
}

TEST(InverseNet, DistillationCoefficientsConfigurable) {
    AttackFixture fx;
    auto c2 = fx.fast_inverse_config();
    c2.alpha1 = 1.0F;
    c2.alpha_growth = 1.0F;  // DINA-c2: uniform coefficients
    InverseNetAttack dina_c2(InverseKind::kDistilled, c2);
    const nn::CutPoint cut{.linear_index = 2, .after_relu = true};
    const auto eval = evaluate_idpa(dina_c2, fx.model, cut, fx.dataset, 4, 0.0F, 78);
    EXPECT_GT(eval.avg_ssim, 0.0);  // trains and evaluates without error
}

/// SHA-256 of a tensor's float bytes, as lowercase hex.
std::string tensor_digest(const Tensor& t) {
    const auto digest = crypto::Sha256::digest(std::span(
        reinterpret_cast<const std::uint8_t*>(t.data()), static_cast<std::size_t>(t.numel()) * 4));
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : digest) {
        s += kDigits[b >> 4];
        s += kDigits[b & 0xF];
    }
    return s;
}

/// Pins the residual inverse blocks bit for bit: EINA's blocks project
/// the skip (channel counts differ, one behind an Upsample) and DINA's
/// keep the identity skip ahead of its dilated conv, so forward math,
/// the two-term skip gradient sums and the RNG draw order all feed the
/// recovered image. Untrained target, tiny data: cheap and exact.
std::string recover_digest(InverseKind kind) {
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.train_size = 12;
    dcfg.test_size = 2;
    dcfg.image_size = 8;
    const data::SyntheticImageDataset dataset(dcfg);
    Rng rng(31);
    nn::Graph target;
    target.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    target.emplace<nn::Relu>();
    target.emplace<nn::MaxPool2d>(2, 2);
    target.emplace<nn::Conv2d>(4, 6, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    target.emplace<nn::Relu>();
    const nn::CutPoint cut{.linear_index = 2, .after_relu = true};

    InverseConfig cfg;
    cfg.epochs = 2;
    cfg.train_samples = 12;
    cfg.batch_size = 4;
    cfg.seed = 32;
    InverseNetAttack attack(kind, cfg);
    attack.fit(target, cut, dataset, 0.05F);
    EXPECT_EQ(attack.num_blocks(), 2U);
    Rng noise(33);
    const Tensor act = noised_activation(target, cut, dataset.test()[0].image, 0.05F, noise);
    return tensor_digest(attack.recover(target, cut, act));
}

TEST(InverseNetGolden, ResidualRecoverDigest) {
    EXPECT_EQ(recover_digest(InverseKind::kResidual),
              "ccfe85a833699ca787a698619b74d89e69758282eaceba41ee1c90d59f532417");
}

TEST(InverseNetGolden, DistilledRecoverDigest) {
    EXPECT_EQ(recover_digest(InverseKind::kDistilled),
              "cd7331b9ee7b3577cd1b3b56f3c1e4ce6543b20777ecb0a59d643a865dbdd92a");
}

TEST(DepthPhenomenon, DeepActivationsAreHarderToInvert) {
    // The core observation C2PI relies on (paper Fig. 1/4): average SSIM
    // decays as the cut moves deeper.
    AttackFixture fx;
    auto cfg = fx.fast_inverse_config();
    InverseNetAttack shallow_attack(InverseKind::kDistilled, cfg);
    InverseNetAttack deep_attack(InverseKind::kDistilled, cfg);
    const auto shallow =
        evaluate_idpa(shallow_attack, fx.model, {.linear_index = 1, .after_relu = true},
                      fx.dataset, 8, 0.1F, 79);
    const auto deep = evaluate_idpa(deep_attack, fx.model, {.linear_index = 5, .after_relu = true},
                                    fx.dataset, 8, 0.1F, 79);
    EXPECT_GT(shallow.avg_ssim, deep.avg_ssim);
}

TEST(NoiseDefense, HigherLambdaLowersRecoverySsim) {
    // Fig. 6's mechanism: more share noise -> worse attack.
    AttackFixture fx;
    auto cfg = fx.fast_inverse_config();
    const nn::CutPoint cut{.linear_index = 1, .after_relu = true};
    InverseNetAttack clean_attack(InverseKind::kDistilled, cfg);
    InverseNetAttack noisy_attack(InverseKind::kDistilled, cfg);
    const auto clean = evaluate_idpa(clean_attack, fx.model, cut, fx.dataset, 8, 0.0F, 80);
    const auto noisy = evaluate_idpa(noisy_attack, fx.model, cut, fx.dataset, 8, 2.0F, 80);
    EXPECT_GT(clean.avg_ssim, noisy.avg_ssim);
}

}  // namespace
}  // namespace c2pi::attack
