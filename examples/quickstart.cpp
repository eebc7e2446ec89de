// Quickstart: the complete C2PI pipeline in ~80 lines.
//
//  1. The server trains a model (AlexNet on a CIFAR-10-like dataset).
//  2. The server runs Algorithm 1 with DINA to find the crypto-clear
//     boundary (here with a small budget; see bench/ for paper scale).
//  3. The boundary is compiled ONCE into an immutable pi::CompiledModel,
//     and one private inference runs against it in-process.
//
// Serving many clients — with their revealed clear-layer tails batched
// into one plaintext pass — is pi::ServingPool's job; pi_server exposes
// it over TCP (--pool W --tail-window MS).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "attack/inverse.hpp"
#include "nn/zoo.hpp"
#include "nn/trainer.hpp"
#include "pi/boundary.hpp"
#include "pi/session.hpp"

int main() {
    using namespace c2pi;

    // ---- 1. server side: data + model ------------------------------------
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.image_size = 16;
    dcfg.train_size = 256;
    dcfg.test_size = 96;
    data::SyntheticImageDataset dataset(dcfg);

    nn::ModelConfig mcfg;
    mcfg.width_multiplier = 0.1F;
    mcfg.input_hw = 16;
    nn::Graph model = nn::zoo::build("alexnet", mcfg);

    std::printf("Training AlexNet (width x%.2f) ...\n", mcfg.width_multiplier);
    nn::TrainConfig tcfg;
    tcfg.epochs = 12;
    tcfg.lr = 0.01F;
    tcfg.momentum = 0.9F;
    const auto report = nn::train_classifier(model, dataset, tcfg);
    std::printf("  test accuracy: %.1f%%\n\n", 100.0 * report.final_test_accuracy);

    // ---- 2. Algorithm 1: find the crypto-clear boundary with DINA --------
    pi::BoundaryConfig bcfg;
    bcfg.ssim_threshold = 0.3;       // sigma
    bcfg.noise_lambda = 0.1F;        // lambda
    bcfg.max_accuracy_drop = 0.025;  // delta
    bcfg.attack_eval_samples = 6;

    attack::InverseConfig dina_cfg;
    dina_cfg.epochs = 5;
    dina_cfg.train_samples = 96;
    const attack::IdpaFactory dina = [&] {
        return std::make_unique<attack::InverseNetAttack>(attack::InverseKind::kDistilled,
                                                          dina_cfg);
    };

    std::printf("Running Algorithm 1 (boundary search with DINA) ...\n");
    const pi::BoundaryResult found = pi::search_boundary(model, dataset, dina, bcfg);
    std::printf("  boundary: linear op %.1f of %lld  (accuracy there: %.1f%%)\n\n",
                found.boundary.as_decimal(), static_cast<long long>(model.num_linear_ops()),
                100.0 * found.boundary_accuracy);

    // ---- 3. compile once, then run a private inference -------------------
    const pi::CompiledModel compiled(
        model, {.input_chw = {3, 16, 16},
                .boundary = found.boundary,
                .he_ring_degree = 1024});  // 16x16 images fit small HE parameters
    // The client noises its revealed share with the lambda Algorithm 1
    // validated the boundary's accuracy under.
    const pi::SessionConfig session{.backend = pi::PiBackend::kCheetah,
                                    .noise_lambda = bcfg.noise_lambda};

    const auto& sample = dataset.test()[0];
    std::printf("Private inference on a client image (true class %lld) ...\n",
                static_cast<long long>(sample.label));
    const auto result =
        pi::run_private_inference(compiled, session, sample.image.reshaped({1, 3, 16, 16}));

    std::int64_t predicted = 0;
    for (std::int64_t j = 1; j < result.logits.dim(1); ++j)
        if (result.logits[j] > result.logits[predicted]) predicted = j;

    std::printf("  predicted class: %lld\n", static_cast<long long>(predicted));
    std::printf("  crypto linear ops: %lld   clear (hidden) linear ops: %lld\n",
                static_cast<long long>(result.crypto_linear_ops),
                static_cast<long long>(result.hidden_linear_ops));
    std::printf("  traffic: %.2f MB   LAN latency: %.3f s   WAN latency: %.3f s\n",
                static_cast<double>(result.stats.total_bytes()) / (1024.0 * 1024.0),
                result.stats.latency_seconds(net::NetworkModel::lan()),
                result.stats.latency_seconds(net::NetworkModel::wan()));

    std::printf("\nTo serve many clients with their clear tails batched into one\n"
                "plaintext pass, run pi_server --pool W --tail-window MS.\n");
    return 0;
}
