#pragma once

/// \file layer.hpp
/// Neural-network layer abstraction with explicit forward/backward. Layers
/// cache what they need during forward() so that backward() can produce
/// input gradients (needed by the MLA attack and inverse-net training) and
/// accumulate parameter gradients (needed by training).

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace c2pi::nn {

/// Trainable tensor: value plus gradient accumulator of identical shape.
struct Parameter {
    Tensor value;
    Tensor grad;

    explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
    void zero_grad() { grad.zero(); }
};

/// Discriminator used by the PI engines to dispatch secure protocols and by
/// the boundary-search logic to locate linear ops and ReLUs.
enum class LayerKind {
    kConv2d,
    kLinear,
    kRelu,
    kMaxPool,
    kAvgPool,
    kFlatten,
    kUpsample,
    kReshape,
    kBatchNorm,
    kGlobalAvgPool,
};

class Layer {
public:
    virtual ~Layer() = default;
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Compute the layer output; caches activations needed by backward().
    virtual Tensor forward(const Tensor& x) = 0;
    /// Inference-only forward: identical math to forward() but touches no
    /// caches, so it is const and safe to call concurrently from many
    /// threads on a shared model (the PI serving path relies on this).
    /// backward() after infer() is invalid — use forward() when training.
    [[nodiscard]] virtual Tensor infer(const Tensor& x) const = 0;
    /// Propagate gradients; returns dL/dx and accumulates parameter grads.
    /// Must be called after forward() on the same input.
    virtual Tensor backward(const Tensor& grad_out) = 0;

    virtual void collect_parameters(std::vector<Parameter*>& /*out*/) {}

    [[nodiscard]] virtual LayerKind kind() const = 0;
    [[nodiscard]] virtual std::string describe() const = 0;

protected:
    Layer() = default;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace c2pi::nn
