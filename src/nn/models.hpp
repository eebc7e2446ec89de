#pragma once

/// \file models.hpp
/// The model zoo used in the paper's evaluation: AlexNet and VGG16/VGG19
/// CIFAR variants, plus ResNet-9/ResNet-18 residual models built on the
/// Graph IR. Exact layer topology (conv counts, ReLU placement, pooling
/// schedule, skip structure) is preserved; a width multiplier scales
/// channel counts so experiments run on CPU (DESIGN.md §4, substitution
/// 2). Prefer the typed registry in nn/zoo.hpp for building by id.

#include "core/rng.hpp"
#include "nn/graph.hpp"

namespace c2pi::nn {

struct ModelConfig {
    std::int64_t num_classes = 10;
    std::int64_t input_hw = 32;      ///< square input resolution
    std::int64_t input_channels = 3;
    float width_multiplier = 0.25F;  ///< scales every channel count (min 4)
    std::uint64_t seed = kDefaultSeed;
};

/// AlexNet CIFAR variant: 5 conv layers + 3 FC layers (8 linear ops; the
/// paper's Fig. 8 sweeps ids 1..7, excluding the classifier output).
[[nodiscard]] Graph make_alexnet(const ModelConfig& config);

/// VGG16 CIFAR variant: 13 conv layers + 1 FC classifier.
[[nodiscard]] Graph make_vgg16(const ModelConfig& config);

/// VGG19 CIFAR variant: 16 conv layers + 1 FC classifier.
[[nodiscard]] Graph make_vgg19(const ModelConfig& config);

/// ResNet-9 CIFAR variant: conv stem, two basic blocks with identity
/// skips, GlobalAvgPool head (8 linear ops after BN folding). Requires
/// input_hw divisible by 4. When `fold_bn` is set (the default) the
/// batch norms are folded into their convs so the graph compiles to PI.
[[nodiscard]] Graph make_resnet9(const ModelConfig& config, bool fold_bn = true);

/// ResNet-18 CIFAR variant (He et al. 2016): conv stem, four stages of
/// two basic blocks (stride-2 + 1x1-projection at each stage entry),
/// GlobalAvgPool head (21 linear ops after BN folding). Requires
/// input_hw divisible by 8.
[[nodiscard]] Graph make_resnet18(const ModelConfig& config, bool fold_bn = true);

/// Channel count after width scaling (exposed for tests).
[[nodiscard]] std::int64_t scaled_channels(std::int64_t base, float width_multiplier);

}  // namespace c2pi::nn
