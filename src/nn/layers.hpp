#pragma once

/// \file layers.hpp
/// Concrete layers: Conv2d (with dilation, used plain and as DINA's dilated
/// conv), Linear, ReLU, pooling, Flatten, nearest Upsample and Reshape.
/// Residual blocks are Graph nodes joined by a residual add (graph.hpp).

#include "core/rng.hpp"
#include "nn/layer.hpp"

namespace c2pi::nn {

/// 2-D convolution, NCHW, square kernel. Kaiming-normal initialised.
class Conv2d final : public Layer {
public:
    Conv2d(std::int64_t in_channels, std::int64_t out_channels, ops::ConvSpec spec, Rng& rng,
           bool with_bias = true);

    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kConv2d; }
    [[nodiscard]] std::string describe() const override;

    [[nodiscard]] const ops::ConvSpec& spec() const { return spec_; }
    [[nodiscard]] std::int64_t in_channels() const { return weight_.value.dim(1); }
    [[nodiscard]] std::int64_t out_channels() const { return weight_.value.dim(0); }
    [[nodiscard]] const Parameter& weight() const { return weight_; }
    [[nodiscard]] const Parameter& bias() const { return bias_; }
    [[nodiscard]] Parameter& weight() { return weight_; }
    [[nodiscard]] Parameter& bias() { return bias_; }

private:
    ops::ConvSpec spec_;
    Parameter weight_;  ///< [O, C, k, k]
    Parameter bias_;    ///< [O] (empty tensor when bias disabled)
    bool with_bias_;
    Tensor cached_input_;
};

/// Fully connected layer: y = x W^T + b, x:[n,in], W:[out,in].
class Linear final : public Layer {
public:
    Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias = true);

    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kLinear; }
    [[nodiscard]] std::string describe() const override;

    [[nodiscard]] std::int64_t in_features() const { return weight_.value.dim(1); }
    [[nodiscard]] std::int64_t out_features() const { return weight_.value.dim(0); }
    [[nodiscard]] const Parameter& weight() const { return weight_; }
    [[nodiscard]] const Parameter& bias() const { return bias_; }
    [[nodiscard]] Parameter& weight() { return weight_; }
    [[nodiscard]] Parameter& bias() { return bias_; }

private:
    Parameter weight_;  ///< [out, in]
    Parameter bias_;    ///< [out]
    bool with_bias_;
    Tensor cached_input_;
};

class Relu final : public Layer {
public:
    Relu() = default;
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kRelu; }
    [[nodiscard]] std::string describe() const override { return "ReLU"; }

private:
    Tensor cached_input_;
};

class MaxPool2d final : public Layer {
public:
    MaxPool2d(std::int64_t kernel, std::int64_t stride) : kernel_(kernel), stride_(stride) {}
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kMaxPool; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }

private:
    std::int64_t kernel_, stride_;
    Shape cached_shape_;
    std::vector<std::int64_t> cached_argmax_;
};

class AvgPool2d final : public Layer {
public:
    AvgPool2d(std::int64_t kernel, std::int64_t stride) : kernel_(kernel), stride_(stride) {}
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kAvgPool; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }

private:
    std::int64_t kernel_, stride_;
    Shape cached_shape_;
};

/// [N,C,H,W] -> [N, C*H*W]
class Flatten final : public Layer {
public:
    Flatten() = default;
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kFlatten; }
    [[nodiscard]] std::string describe() const override { return "Flatten"; }

private:
    Shape cached_shape_;
};

/// Inference-style batch normalisation over per-channel running
/// statistics: y = γ·(x−μ)/√(σ²+ε) + β on [N,C,H,W]. The PI planner
/// never sees this layer — Graph::fold_batch_norms() folds it into the
/// producing Conv2d at compile time. `rng` draws slightly-off-identity
/// parameters so folding is exercised non-trivially on untrained models.
class BatchNorm2d final : public Layer {
public:
    BatchNorm2d(std::int64_t channels, Rng& rng);

    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kBatchNorm; }
    [[nodiscard]] std::string describe() const override;

    [[nodiscard]] const Parameter& gamma() const { return gamma_; }
    [[nodiscard]] const Parameter& beta() const { return beta_; }
    [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
    [[nodiscard]] const Tensor& running_var() const { return running_var_; }
    [[nodiscard]] float epsilon() const { return eps_; }

private:
    Parameter gamma_;      ///< [C]
    Parameter beta_;       ///< [C]
    Tensor running_mean_;  ///< [C]
    Tensor running_var_;   ///< [C]
    float eps_ = 1e-5F;
    Tensor cached_input_;
};

/// Global average pool: [N,C,H,W] -> [N,C]. Replaces Flatten+wide-FC in
/// the ResNet zoo entries; plans as a single local averaging op.
class GlobalAvgPool final : public Layer {
public:
    GlobalAvgPool() = default;
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kGlobalAvgPool; }
    [[nodiscard]] std::string describe() const override { return "GlobalAvgPool"; }

private:
    Shape cached_shape_;
};

/// Nearest-neighbour upsample (inverse-model building block).
class Upsample final : public Layer {
public:
    explicit Upsample(std::int64_t factor) : factor_(factor) {}
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kUpsample; }
    [[nodiscard]] std::string describe() const override;

private:
    std::int64_t factor_;
};

/// Reshape rows of a [N, F] tensor into [N, C, H, W] (the inverse of
/// Flatten; used by inversion models that cross a flatten boundary).
class Reshape final : public Layer {
public:
    explicit Reshape(Shape target_chw) : target_(std::move(target_chw)) {}
    Tensor forward(const Tensor& x) override;
    [[nodiscard]] Tensor infer(const Tensor& x) const override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] LayerKind kind() const override { return LayerKind::kReshape; }
    [[nodiscard]] std::string describe() const override;

private:
    Shape target_;  ///< per-sample target shape (no batch dim)
    Shape cached_shape_;
};

}  // namespace c2pi::nn
