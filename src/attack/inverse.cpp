#include "attack/inverse.hpp"

#include <memory>
#include <numeric>

#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "tensor/tensor_ops.hpp"

namespace c2pi::attack {

namespace {

Shape drop_batch(const Shape& s) { return Shape(s.begin() + 1, s.end()); }

/// ResNet basic block (He et al. 2016) appended after `net`'s last node:
/// conv3x3 -> ReLU -> conv3x3, plus the block input as the skip (through
/// a 1x1 projection when channel counts differ), joined by a residual
/// add and a final ReLU. Weights are drawn from `rng` in the order
/// conv1, conv2, projection.
void append_basic_block(nn::Graph& net, std::int64_t in_channels, std::int64_t out_channels,
                        Rng& rng) {
    const std::int64_t input = net.last();
    const ops::ConvSpec conv3x3{.kernel = 3, .stride = 1, .pad = 1};
    net.emplace<nn::Conv2d>(in_channels, out_channels, conv3x3, rng);
    net.emplace<nn::Relu>();
    const std::int64_t conv2 = net.add_node(
        std::make_unique<nn::Conv2d>(out_channels, out_channels, conv3x3, rng), net.last());
    std::int64_t skip = input;
    if (in_channels != out_channels)
        skip = net.add_node(std::make_unique<nn::Conv2d>(
                                in_channels, out_channels,
                                ops::ConvSpec{.kernel = 1, .stride = 1, .pad = 0}, rng),
                            input);
    net.add_node(std::make_unique<nn::Relu>(), net.add_residual(conv2, skip));
}

}  // namespace

void InverseNetAttack::build(nn::Graph& model, const nn::CutPoint& cut,
                             const Shape& image_chw) {
    blocks_.clear();
    boundary_layers_.clear();
    image_shape_ = image_chw;

    const std::size_t end = model.flat_cut_index(cut) + 1;

    // Probe per-layer output shapes.
    std::vector<Shape> shape_after(end);
    {
        Tensor probe({1, image_chw[0], image_chw[1], image_chw[2]});
        Tensor a = probe;
        for (std::size_t i = 0; i < end; ++i) {
            a = model.forward_range(i, i + 1, a);
            shape_after[i] = a.shape();
        }
    }

    // Sub-blocks end at each ReLU; the final partial run (if the cut is at
    // a linear op) forms the last sub-block.
    for (std::size_t i = 0; i < end; ++i) {
        if (model.layer(i).kind() == nn::LayerKind::kRelu) boundary_layers_.push_back(i);
    }
    if (boundary_layers_.empty() || boundary_layers_.back() != end - 1)
        boundary_layers_.push_back(end - 1);

    // Per-sample boundary shapes: S_0 = image, S_k = after boundary k.
    std::vector<Shape> s(boundary_layers_.size() + 1);
    s[0] = image_chw;
    for (std::size_t k = 0; k < boundary_layers_.size(); ++k)
        s[k + 1] = drop_batch(shape_after[boundary_layers_[k]]);

    Rng rng(config_.seed ^ 0xD1A);
    const std::size_t m = boundary_layers_.size();
    for (std::size_t t = 0; t < m; ++t) {
        const Shape& in = s[m - t];       // block t inverts sub-block m-t
        const Shape& out = s[m - t - 1];
        InverseBlock block;
        block.in_shape = in;
        block.out_shape = out;

        if (in.size() == 1 && out.size() == 1) {
            block.net.emplace<nn::Linear>(in[0], out[0], rng);
            block.net.emplace<nn::Relu>();
        } else if (in.size() == 1 && out.size() == 3) {
            block.net.emplace<nn::Linear>(in[0], shape_numel(out), rng);
            block.net.emplace<nn::Reshape>(out);
            if (kind_ == InverseKind::kDistilled) {
                block.net.emplace<nn::Conv2d>(
                    out[0], out[0], ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 2, .dilation = 2},
                    rng);
            }
        } else {
            require(in.size() == 3 && out.size() == 3, "unsupported sub-block shapes");
            const std::int64_t factor = out[1] / in[1];
            if (factor > 1) block.net.emplace<nn::Upsample>(factor);
            switch (kind_) {
                case InverseKind::kPlain:
                    block.net.emplace<nn::Conv2d>(
                        in[0], out[0], ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
                    if (m - t - 1 != 0) block.net.emplace<nn::Relu>();
                    break;
                case InverseKind::kResidual:
                    append_basic_block(block.net, in[0], out[0], rng);
                    break;
                case InverseKind::kDistilled:
                    // Basic inverse block: ResNet basic block + dilated conv.
                    append_basic_block(block.net, in[0], in[0], rng);
                    block.net.emplace<nn::Conv2d>(
                        in[0], out[0],
                        ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 2, .dilation = 2}, rng);
                    break;
            }
        }
        blocks_.push_back(std::move(block));
    }
}

std::vector<Tensor> InverseNetAttack::target_boundary_activations(nn::Graph& model,
                                                                  const Tensor& batch) const {
    std::vector<Tensor> d;
    d.reserve(boundary_layers_.size());
    Tensor a = batch;
    std::size_t prev = 0;
    for (const std::size_t b : boundary_layers_) {
        a = model.forward_range(prev, b + 1, a);
        d.push_back(a);
        prev = b + 1;
    }
    return d;  // D_1 .. D_m (D_m is the attacked activation)
}

void InverseNetAttack::fit(nn::Graph& model, const nn::CutPoint& cut,
                           const data::SyntheticImageDataset& dataset, float noise_lambda) {
    const Shape image_chw = dataset.train().front().image.shape();
    build(model, cut, image_chw);

    std::vector<nn::Parameter*> params;
    for (auto& b : blocks_)
        for (auto* p : b.net.parameters()) params.push_back(p);
    nn::Adam opt(params, config_.lr);

    Rng rng(config_.seed ^ 0xF17);
    const std::size_t m = blocks_.size();

    // Distillation coefficients alpha_1..alpha_{m-1} (alpha_0 separate).
    std::vector<float> alphas(m, 0.0F);
    if (kind_ == InverseKind::kDistilled && m >= 2) {
        alphas[1] = config_.alpha1;
        for (std::size_t j = 2; j < m; ++j) alphas[j] = config_.alpha_growth * alphas[j - 1];
    }

    const std::size_t train_count = std::min(config_.train_samples, dataset.train().size());
    std::vector<std::size_t> order(train_count);
    std::iota(order.begin(), order.end(), 0);

    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(order);
        for (std::size_t start = 0; start + 1 < train_count;
             start += static_cast<std::size_t>(config_.batch_size)) {
            const std::size_t count =
                std::min(static_cast<std::size_t>(config_.batch_size), train_count - start);
            const std::span<const std::size_t> idx(order.data() + start, count);
            const Tensor x = dataset.make_batch(dataset.train(), idx);
            const auto d = target_boundary_activations(model, x);

            // Attack input: the (noised) boundary activation.
            Tensor input = d.back();
            if (noise_lambda > 0.0F)
                for (std::int64_t i = 0; i < input.numel(); ++i)
                    input[i] += rng.uniform(-noise_lambda, noise_lambda);

            // Forward through inverse blocks, capturing block inputs I.
            std::vector<Tensor> block_inputs(m);
            Tensor h = input;
            for (std::size_t t = 0; t < m; ++t) {
                block_inputs[t] = h;
                h = blocks_[t].net.forward(h);
            }

            // Output loss (alpha_0 term).
            const auto out_loss = ops::mse_loss(h, x);
            Tensor g = ops::scale(out_loss.grad_logits, config_.alpha0);

            // Backward with distillation gradients injected at block inputs:
            // block t's input approximates D_{m-t} (t >= 1).
            for (std::size_t t = m; t > 0; --t) {
                auto& net = blocks_[t - 1].net;
                g = net.backward_range(0, net.size(), g);
                const std::size_t j = m - (t - 1);  // distillation index of this input
                if (kind_ == InverseKind::kDistilled && t - 1 >= 1 && j < m && alphas[j] > 0.0F) {
                    const auto dist = ops::mse_loss(block_inputs[t - 1], d[j - 1]);
                    ops::axpy(alphas[j], dist.grad_logits, g);
                }
            }
            opt.step();
        }
    }
}

Tensor InverseNetAttack::recover(nn::Graph& /*model*/, const nn::CutPoint& /*cut*/,
                                 const Tensor& activation) {
    require(!blocks_.empty(), "recover() before fit()");
    Tensor h = activation;
    for (auto& b : blocks_) h = b.net.forward(h);
    return ops::clamp(h, 0.0F, 1.0F);
}

}  // namespace c2pi::attack
