#include "nn/models.hpp"

#include <algorithm>

#include "nn/layers.hpp"

namespace c2pi::nn {

std::int64_t scaled_channels(std::int64_t base, float width_multiplier) {
    const auto scaled = static_cast<std::int64_t>(static_cast<float>(base) * width_multiplier);
    return std::max<std::int64_t>(scaled, 4);
}

namespace {

constexpr std::int64_t kPool = -1;  // sentinel in VGG channel plans

/// Build a VGG-style feature extractor from a channel plan, then a single
/// FC classifier (the CIFAR-VGG convention).
Graph make_vgg(const std::vector<std::int64_t>& plan, const ModelConfig& cfg) {
    Rng rng(cfg.seed);
    Graph model;
    std::int64_t channels = cfg.input_channels;
    std::int64_t hw = cfg.input_hw;
    for (const auto entry : plan) {
        if (entry == kPool) {
            require(hw >= 2, "input resolution too small for VGG pooling schedule");
            model.emplace<MaxPool2d>(2, 2);
            hw /= 2;
            continue;
        }
        const std::int64_t out = scaled_channels(entry, cfg.width_multiplier);
        model.emplace<Conv2d>(channels, out, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
        model.emplace<Relu>();
        channels = out;
    }
    model.emplace<Flatten>();
    model.emplace<Linear>(channels * hw * hw, cfg.num_classes, rng);
    return model;
}

}  // namespace

Graph make_alexnet(const ModelConfig& cfg) {
    Rng rng(cfg.seed);
    Graph model;
    const auto ch = [&](std::int64_t base) { return scaled_channels(base, cfg.width_multiplier); };
    std::int64_t hw = cfg.input_hw;

    model.emplace<Conv2d>(cfg.input_channels, ch(64), ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1},
                          rng);
    model.emplace<Relu>();
    model.emplace<MaxPool2d>(2, 2);
    hw /= 2;
    model.emplace<Conv2d>(ch(64), ch(192), ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<Relu>();
    model.emplace<MaxPool2d>(2, 2);
    hw /= 2;
    model.emplace<Conv2d>(ch(192), ch(384), ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<Relu>();
    model.emplace<Conv2d>(ch(384), ch(256), ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<Relu>();
    model.emplace<Conv2d>(ch(256), ch(256), ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<Relu>();
    model.emplace<MaxPool2d>(2, 2);
    hw /= 2;
    model.emplace<Flatten>();
    model.emplace<Linear>(ch(256) * hw * hw, ch(512), rng);
    model.emplace<Relu>();
    model.emplace<Linear>(ch(512), ch(256), rng);
    model.emplace<Relu>();
    model.emplace<Linear>(ch(256), cfg.num_classes, rng);
    return model;
}

Graph make_vgg16(const ModelConfig& cfg) {
    // 13 convs: 64x2 M 128x2 M 256x3 M 512x3 M 512x3 M
    const std::vector<std::int64_t> plan = {64,  64,  kPool, 128, 128, kPool, 256, 256, 256, kPool,
                                            512, 512, 512,  kPool, 512, 512, 512, kPool};
    return make_vgg(plan, cfg);
}

Graph make_vgg19(const ModelConfig& cfg) {
    // 16 convs: 64x2 M 128x2 M 256x4 M 512x4 M 512x4 M
    const std::vector<std::int64_t> plan = {64,  64,  kPool, 128, 128, kPool, 256, 256,
                                            256, 256, kPool, 512, 512, 512,  512, kPool,
                                            512, 512, 512,  512, kPool};
    return make_vgg(plan, cfg);
}

namespace {

/// Conv3x3 (or 1x1 projection) followed by BatchNorm2d; returns the BN
/// node. Convs keep their bias so fold_batch_norms() has a target.
std::int64_t conv_bn(Graph& g, std::int64_t input, std::int64_t in_ch, std::int64_t out_ch,
                     std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng) {
    const auto conv = g.add_node(
        std::make_unique<Conv2d>(in_ch, out_ch,
                                 ops::ConvSpec{.kernel = kernel, .stride = stride, .pad = pad},
                                 rng),
        input);
    return g.add_node(std::make_unique<BatchNorm2d>(out_ch, rng), conv);
}

/// He et al. basic block: conv-BN-ReLU-conv-BN plus skip, post-add ReLU.
/// A stride-2 or channel-changing block projects the skip with a 1x1
/// conv-BN; otherwise the skip is the identity edge.
std::int64_t basic_block(Graph& g, std::int64_t input, std::int64_t in_ch, std::int64_t out_ch,
                         std::int64_t stride, Rng& rng) {
    auto h = conv_bn(g, input, in_ch, out_ch, 3, stride, 1, rng);
    h = g.add_node(std::make_unique<Relu>(), h);
    h = conv_bn(g, h, out_ch, out_ch, 3, 1, 1, rng);
    std::int64_t skip = input;
    if (stride != 1 || in_ch != out_ch) skip = conv_bn(g, input, in_ch, out_ch, 1, stride, 0, rng);
    const auto sum = g.add_residual(h, skip);
    return g.add_node(std::make_unique<Relu>(), sum);
}

std::int64_t gap_head(Graph& g, std::int64_t input, std::int64_t channels,
                      const ModelConfig& cfg, Rng& rng) {
    const auto gap = g.add_node(std::make_unique<GlobalAvgPool>(), input);
    return g.add_node(std::make_unique<Linear>(channels, cfg.num_classes, rng), gap);
}

}  // namespace

Graph make_resnet9(const ModelConfig& cfg, bool fold_bn) {
    require(cfg.input_hw % 4 == 0, "resnet9 needs input_hw divisible by 4");
    Rng rng(cfg.seed);
    Graph g;
    const auto ch = [&](std::int64_t base) { return scaled_channels(base, cfg.width_multiplier); };
    const std::int64_t c1 = ch(64), c2 = ch(128), c3 = ch(256);

    auto n = conv_bn(g, Graph::kInput, cfg.input_channels, c1, 3, 1, 1, rng);
    n = g.add_node(std::make_unique<Relu>(), n);
    n = conv_bn(g, n, c1, c2, 3, 1, 1, rng);
    n = g.add_node(std::make_unique<Relu>(), n);
    n = g.add_node(std::make_unique<MaxPool2d>(2, 2), n);
    n = basic_block(g, n, c2, c2, 1, rng);
    n = conv_bn(g, n, c2, c3, 3, 1, 1, rng);
    n = g.add_node(std::make_unique<Relu>(), n);
    n = g.add_node(std::make_unique<MaxPool2d>(2, 2), n);
    n = basic_block(g, n, c3, c3, 1, rng);
    (void)gap_head(g, n, c3, cfg, rng);
    if (fold_bn) g.fold_batch_norms();
    return g;
}

Graph make_resnet18(const ModelConfig& cfg, bool fold_bn) {
    require(cfg.input_hw % 8 == 0, "resnet18 needs input_hw divisible by 8");
    Rng rng(cfg.seed);
    Graph g;
    const auto ch = [&](std::int64_t base) { return scaled_channels(base, cfg.width_multiplier); };

    auto n = conv_bn(g, Graph::kInput, cfg.input_channels, ch(64), 3, 1, 1, rng);
    n = g.add_node(std::make_unique<Relu>(), n);
    std::int64_t channels = ch(64);
    for (const std::int64_t base : {64, 128, 256, 512}) {
        const std::int64_t out = ch(base);
        const std::int64_t stride = base == 64 ? 1 : 2;  // stage entry downsamples
        n = basic_block(g, n, channels, out, stride, rng);
        n = basic_block(g, n, out, out, 1, rng);
        channels = out;
    }
    (void)gap_head(g, n, channels, cfg, rng);
    if (fold_bn) g.fold_batch_norms();
    return g;
}

}  // namespace c2pi::nn
