// Scenario example: privacy-preserving medical image triage — the use
// case the paper's introduction motivates (a patient's sensitive image, a
// hospital's proprietary model). Compares full PI against C2PI at two
// privacy levels on the same "scan", reporting the latency/communication
// trade-off and what each party learned.
//
// Build & run:  ./build/examples/private_diagnosis

#include <cstdio>

#include "nn/zoo.hpp"
#include "nn/trainer.hpp"
#include "pi/boundary.hpp"
#include "pi/session.hpp"

namespace {

using namespace c2pi;

void report(const char* name, const pi::PiResult& res, const pi::PiResult* baseline) {
    const double lan = res.stats.latency_seconds(net::NetworkModel::lan());
    const double wan = res.stats.latency_seconds(net::NetworkModel::wan());
    const double mb = static_cast<double>(res.stats.total_bytes()) / (1024.0 * 1024.0);
    std::printf("  %-22s LAN %7.3fs  WAN %7.3fs  comm %8.2f MB", name, lan, wan, mb);
    if (baseline != nullptr) {
        std::printf("  (%.2fx faster WAN, %.2fx less comm)",
                    baseline->stats.latency_seconds(net::NetworkModel::wan()) / wan,
                    static_cast<double>(baseline->stats.total_bytes()) /
                        static_cast<double>(res.stats.total_bytes()));
    }
    std::printf("\n");
    std::printf("  %-22s architecture visible to patient: %lld of %lld linear ops\n", "",
                static_cast<long long>(res.crypto_linear_ops),
                static_cast<long long>(res.crypto_linear_ops + res.hidden_linear_ops));
}

}  // namespace

int main() {
    std::printf("=== Private diagnosis: hospital model, patient scan ===\n\n");

    // The "hospital" trains a VGG-style classifier on its dataset.
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.image_size = 32;
    dcfg.train_size = 384;
    dcfg.test_size = 96;
    data::SyntheticImageDataset scans(dcfg);

    nn::ModelConfig mcfg;
    mcfg.width_multiplier = 0.1F;
    mcfg.input_hw = 32;
    nn::Graph model = nn::zoo::build("vgg16", mcfg);
    std::printf("Training the hospital's VGG16 classifier ...\n");
    nn::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.lr = 0.01F;
    tcfg.momentum = 0.95F;
    const auto rep = nn::train_classifier(model, scans, tcfg);
    std::printf("  diagnostic accuracy: %.1f%%\n\n", 100.0 * rep.final_test_accuracy);

    const Tensor scan = scans.test()[3].image.reshaped({1, 3, 32, 32});

    // Full PI baseline: every layer under MPC (the paper's special case of
    // C2PI with the boundary at the last layer). The model is compiled
    // exactly once per boundary; sessions then serve against the const
    // artifact.
    const pi::SessionConfig cheetah{.backend = pi::PiBackend::kCheetah};
    std::printf("Full private inference (Cheetah backend) ...\n");
    const pi::CompiledModel full(model, {.input_chw = {3, 32, 32}});
    const auto full_res = pi::run_private_inference(full, cheetah, scan);
    report("full PI", full_res, nullptr);

    // C2PI at two privacy levels (boundaries as Algorithm 1 would pick for
    // sigma=0.2 / 0.3 — precomputed here to keep the example quick; see
    // examples/boundary_tuning.cpp and bench/fig8 for the live search).
    for (const auto& [label, cut] :
         {std::pair<const char*, nn::CutPoint>{"C2PI (conservative)",
                                               {.linear_index = 10, .after_relu = false}},
          std::pair<const char*, nn::CutPoint>{"C2PI (aggressive)",
                                               {.linear_index = 6, .after_relu = false}}}) {
        std::printf("%s: crypto layers up to conv %.1f ...\n", label, cut.as_decimal());
        const pi::CompiledModel compiled(model, {.input_chw = {3, 32, 32}, .boundary = cut});
        pi::SessionConfig config = cheetah;
        config.noise_lambda = 0.1F;
        const auto res = pi::run_private_inference(compiled, config, scan);
        report(label, res, &full_res);

        // Both settings must agree with full PI on the diagnosis.
        std::int64_t pred_full = 0, pred_c2pi = 0;
        for (std::int64_t j = 1; j < full_res.logits.dim(1); ++j) {
            if (full_res.logits[j] > full_res.logits[pred_full]) pred_full = j;
            if (res.logits[j] > res.logits[pred_c2pi]) pred_c2pi = j;
        }
        std::printf("  diagnosis agrees with full PI: %s\n\n",
                    pred_full == pred_c2pi ? "yes" : "NO (noise flipped the class)");
    }

    std::printf("What each party learned:\n");
    std::printf("  patient : the diagnosis + the crypto-layer architecture only\n");
    std::printf("  hospital: the (noised) boundary activation — IDPA-resistant by\n");
    std::printf("            Algorithm 1's choice of boundary — and nothing else\n");
    return 0;
}
