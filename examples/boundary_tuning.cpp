// Boundary tuning example: the paper's third claimed benefit — users can
// trade PI cost against the guaranteed privacy level by tuning the DINA
// failure threshold sigma. This example runs Algorithm 1 at several
// thresholds on AlexNet and shows how the boundary, accuracy and
// end-to-end cost move together.
//
// Build & run:  ./build/examples/boundary_tuning

#include <cstdio>

#include "attack/inverse.hpp"
#include "nn/zoo.hpp"
#include "nn/trainer.hpp"
#include "pi/boundary.hpp"
#include "pi/session.hpp"

int main() {
    using namespace c2pi;
    std::printf("=== Tuning the privacy threshold sigma ===\n\n");

    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.image_size = 16;
    dcfg.train_size = 256;
    dcfg.test_size = 96;
    data::SyntheticImageDataset dataset(dcfg);

    nn::ModelConfig mcfg;
    mcfg.width_multiplier = 0.1F;
    mcfg.input_hw = 16;
    nn::Graph model = nn::zoo::build("alexnet", mcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 12;
    tcfg.lr = 0.01F;
    tcfg.momentum = 0.9F;
    const auto rep = nn::train_classifier(model, dataset, tcfg);
    std::printf("AlexNet baseline accuracy: %.1f%%\n\n", 100.0 * rep.final_test_accuracy);

    attack::InverseConfig dina_cfg;
    dina_cfg.epochs = 5;
    dina_cfg.train_samples = 96;
    const attack::IdpaFactory dina = [&] {
        return std::make_unique<attack::InverseNetAttack>(attack::InverseKind::kDistilled,
                                                          dina_cfg);
    };

    const Tensor input = dataset.test()[0].image.reshaped({1, 3, 16, 16});

    // Full-PI reference cost.
    const pi::CompiledModel::Options full_opts{.input_chw = {3, 16, 16}, .he_ring_degree = 1024};
    const pi::CompiledModel full(model, full_opts);
    const auto full_res = pi::run_private_inference(
        full, pi::SessionConfig{.backend = pi::PiBackend::kCheetah}, input);
    const double full_wan = full_res.stats.latency_seconds(net::NetworkModel::wan());
    const double full_mb = static_cast<double>(full_res.stats.total_bytes()) / (1024.0 * 1024.0);
    std::printf("%8s  %10s  %10s  %12s  %12s\n", "sigma", "boundary", "accuracy", "WAN latency",
                "comm");
    std::printf("%8s  %10s  %10.1f%%  %9.3fs   %9.2f MB   (full PI reference)\n", "-", "full",
                100.0 * rep.final_test_accuracy, full_wan, full_mb);

    for (const double sigma : {0.5, 0.3, 0.2}) {
        pi::BoundaryConfig bcfg;
        bcfg.ssim_threshold = sigma;
        bcfg.noise_lambda = 0.1F;
        bcfg.max_accuracy_drop = 0.025;
        bcfg.attack_eval_samples = 6;
        const pi::BoundaryResult found = pi::search_boundary(model, dataset, dina, bcfg);
        pi::CompiledModel::Options opts = full_opts;
        opts.boundary = found.boundary;
        const pi::CompiledModel compiled(model, opts);
        const auto res = pi::run_private_inference(
            compiled,
            pi::SessionConfig{.backend = pi::PiBackend::kCheetah,
                              .noise_lambda = bcfg.noise_lambda},
            input);
        const double wan = res.stats.latency_seconds(net::NetworkModel::wan());
        const double mb = static_cast<double>(res.stats.total_bytes()) / (1024.0 * 1024.0);
        std::printf("%8.1f  %10.1f  %10.1f%%  %9.3fs   %9.2f MB   (%.2fx faster, %.2fx less comm)\n",
                    sigma, found.boundary.as_decimal(), 100.0 * found.boundary_accuracy, wan, mb,
                    full_wan / wan, full_mb / mb);
        std::fflush(stdout);
    }

    std::printf(
        "\nHigher sigma tolerates lower-quality recoveries -> earlier boundary -> more\n"
        "savings; sigma -> 0 recovers full PI. Existing PI frameworks are the special\n"
        "case of C2PI with the boundary at the last layer (paper Section I).\n");
    return 0;
}
