#include "nn/layers.hpp"

#include <cmath>
#include <sstream>

namespace c2pi::nn {

namespace {
Tensor kaiming_init(Shape shape, std::int64_t fan_in, Rng& rng) {
    const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
    return Tensor::randn(std::move(shape), rng, stddev);
}
}  // namespace

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, ops::ConvSpec spec, Rng& rng,
               bool with_bias)
    : spec_(spec),
      weight_(kaiming_init({out_channels, in_channels, spec.kernel, spec.kernel},
                           in_channels * spec.kernel * spec.kernel, rng)),
      bias_(with_bias ? Parameter(Tensor({out_channels})) : Parameter(Tensor({1}))),
      with_bias_(with_bias) {
    require(in_channels > 0 && out_channels > 0, "conv channels must be positive");
}

Tensor Conv2d::forward(const Tensor& x) {
    cached_input_ = x;
    return infer(x);
}

Tensor Conv2d::infer(const Tensor& x) const {
    return ops::conv2d(x, weight_.value, with_bias_ ? bias_.value : Tensor{}, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
    require(!cached_input_.empty(), "backward before forward");
    if (with_bias_) {
        ops::conv2d_backward_params(grad_out, cached_input_, spec_, weight_.grad, bias_.grad);
    } else {
        Tensor no_bias;
        ops::conv2d_backward_params(grad_out, cached_input_, spec_, weight_.grad, no_bias);
    }
    return ops::conv2d_backward_input(grad_out, weight_.value, cached_input_.shape(), spec_);
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&weight_);
    if (with_bias_) out.push_back(&bias_);
}

std::string Conv2d::describe() const {
    std::ostringstream os;
    os << "Conv2d(" << in_channels() << "->" << out_channels() << ", k=" << spec_.kernel
       << ", s=" << spec_.stride << ", p=" << spec_.pad;
    if (spec_.dilation != 1) os << ", d=" << spec_.dilation;
    os << ')';
    return os.str();
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias)
    : weight_(kaiming_init({out_features, in_features}, in_features, rng)),
      bias_(with_bias ? Parameter(Tensor({out_features})) : Parameter(Tensor({1}))),
      with_bias_(with_bias) {}

Tensor Linear::forward(const Tensor& x) {
    require(x.rank() == 2 && x.dim(1) == in_features(), "linear input shape mismatch");
    cached_input_ = x;
    return infer(x);
}

Tensor Linear::infer(const Tensor& x) const {
    require(x.rank() == 2 && x.dim(1) == in_features(), "linear input shape mismatch");
    Tensor y = ops::matmul(x, ops::transpose2d(weight_.value));  // [n, out]
    if (with_bias_) {
        for (std::int64_t i = 0; i < y.dim(0); ++i)
            for (std::int64_t j = 0; j < y.dim(1); ++j) y.at(i, j) += bias_.value[j];
    }
    return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
    require(!cached_input_.empty(), "backward before forward");
    // dW = grad^T x ; dx = grad W
    const Tensor gw = ops::matmul(ops::transpose2d(grad_out), cached_input_);
    for (std::int64_t i = 0; i < gw.numel(); ++i) weight_.grad[i] += gw[i];
    if (with_bias_) {
        for (std::int64_t i = 0; i < grad_out.dim(0); ++i)
            for (std::int64_t j = 0; j < grad_out.dim(1); ++j) bias_.grad[j] += grad_out.at(i, j);
    }
    return ops::matmul(grad_out, weight_.value);
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&weight_);
    if (with_bias_) out.push_back(&bias_);
}

std::string Linear::describe() const {
    std::ostringstream os;
    os << "Linear(" << in_features() << "->" << out_features() << ')';
    return os.str();
}

// ------------------------------------------------------------------ Relu ---

Tensor Relu::forward(const Tensor& x) {
    cached_input_ = x;
    return infer(x);
}

Tensor Relu::infer(const Tensor& x) const { return ops::relu(x); }

Tensor Relu::backward(const Tensor& grad_out) {
    require(!cached_input_.empty(), "backward before forward");
    return ops::relu_backward(grad_out, cached_input_);
}

// ------------------------------------------------------------- MaxPool2d ---

Tensor MaxPool2d::forward(const Tensor& x) {
    cached_shape_ = x.shape();
    auto res = ops::maxpool2d(x, kernel_, stride_);
    cached_argmax_ = std::move(res.argmax);
    return std::move(res.output);
}

Tensor MaxPool2d::infer(const Tensor& x) const {
    return std::move(ops::maxpool2d(x, kernel_, stride_).output);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
    require(!cached_argmax_.empty(), "backward before forward");
    return ops::maxpool2d_backward(grad_out, cached_shape_, cached_argmax_);
}

std::string MaxPool2d::describe() const {
    std::ostringstream os;
    os << "MaxPool2d(k=" << kernel_ << ", s=" << stride_ << ')';
    return os.str();
}

// ------------------------------------------------------------- AvgPool2d ---

Tensor AvgPool2d::forward(const Tensor& x) {
    cached_shape_ = x.shape();
    return infer(x);
}

Tensor AvgPool2d::infer(const Tensor& x) const { return ops::avgpool2d(x, kernel_, stride_); }

Tensor AvgPool2d::backward(const Tensor& grad_out) {
    require(!cached_shape_.empty(), "backward before forward");
    return ops::avgpool2d_backward(grad_out, cached_shape_, kernel_, stride_);
}

std::string AvgPool2d::describe() const {
    std::ostringstream os;
    os << "AvgPool2d(k=" << kernel_ << ", s=" << stride_ << ')';
    return os.str();
}

// ----------------------------------------------------------- BatchNorm2d ---

BatchNorm2d::BatchNorm2d(std::int64_t channels, Rng& rng)
    : gamma_(Parameter(Tensor({channels}))),
      beta_(Parameter(Tensor::randn({channels}, rng, 0.05F))),
      running_mean_(Tensor::randn({channels}, rng, 0.05F)),
      running_var_(Tensor({channels})) {
    require(channels > 0, "batch-norm channels must be positive");
    for (std::int64_t c = 0; c < channels; ++c) {
        gamma_.value[c] = 1.0F + rng.normal(0.0F, 0.1F);
        running_var_[c] = 1.0F + rng.uniform(0.0F, 0.25F);
    }
}

Tensor BatchNorm2d::forward(const Tensor& x) {
    cached_input_ = x;
    return infer(x);
}

Tensor BatchNorm2d::infer(const Tensor& x) const {
    require(x.rank() == 4 && x.dim(1) == gamma_.value.numel(),
            "batch-norm input must be [N,C,H,W] with matching channels");
    const std::int64_t channels = x.dim(1);
    const std::int64_t plane = x.dim(2) * x.dim(3);
    Tensor y(x.shape());
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const float inv_std = 1.0F / std::sqrt(running_var_[c] + eps_);
            const float scale = gamma_.value[c] * inv_std;
            const float shift = beta_.value[c] - running_mean_[c] * scale;
            const std::int64_t base = (n * channels + c) * plane;
            for (std::int64_t k = 0; k < plane; ++k) y[base + k] = x[base + k] * scale + shift;
        }
    }
    return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
    require(!cached_input_.empty(), "backward before forward");
    // Running statistics are constants here, so the map is a per-channel
    // affine: dx = g·γ/σ, dγ += Σ g·(x−μ)/σ, dβ += Σ g.
    const std::int64_t channels = cached_input_.dim(1);
    const std::int64_t plane = cached_input_.dim(2) * cached_input_.dim(3);
    Tensor gx(cached_input_.shape());
    for (std::int64_t n = 0; n < cached_input_.dim(0); ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const float inv_std = 1.0F / std::sqrt(running_var_[c] + eps_);
            const std::int64_t base = (n * channels + c) * plane;
            for (std::int64_t k = 0; k < plane; ++k) {
                const float g = grad_out[base + k];
                gx[base + k] = g * gamma_.value[c] * inv_std;
                gamma_.grad[c] += g * (cached_input_[base + k] - running_mean_[c]) * inv_std;
                beta_.grad[c] += g;
            }
        }
    }
    return gx;
}

void BatchNorm2d::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

std::string BatchNorm2d::describe() const {
    std::ostringstream os;
    os << "BatchNorm2d(" << gamma_.value.numel() << ')';
    return os.str();
}

// --------------------------------------------------------- GlobalAvgPool ---

Tensor GlobalAvgPool::forward(const Tensor& x) {
    cached_shape_ = x.shape();
    return infer(x);
}

Tensor GlobalAvgPool::infer(const Tensor& x) const {
    require(x.rank() == 4, "global-avgpool input must be [N,C,H,W]");
    const std::int64_t plane = x.dim(2) * x.dim(3);
    Tensor y({x.dim(0), x.dim(1)});
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        float acc = 0.0F;
        for (std::int64_t k = 0; k < plane; ++k) acc += x[i * plane + k];
        y[i] = acc / static_cast<float>(plane);
    }
    return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
    require(!cached_shape_.empty(), "backward before forward");
    const std::int64_t plane = cached_shape_[2] * cached_shape_[3];
    Tensor gx(cached_shape_);
    for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
        const float g = grad_out[i] / static_cast<float>(plane);
        for (std::int64_t k = 0; k < plane; ++k) gx[i * plane + k] = g;
    }
    return gx;
}

// --------------------------------------------------------------- Flatten ---

Tensor Flatten::forward(const Tensor& x) {
    cached_shape_ = x.shape();
    return infer(x);
}

Tensor Flatten::infer(const Tensor& x) const {
    return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
    require(!cached_shape_.empty(), "backward before forward");
    return grad_out.reshaped(cached_shape_);
}

// -------------------------------------------------------------- Upsample ---

Tensor Upsample::forward(const Tensor& x) { return infer(x); }

Tensor Upsample::infer(const Tensor& x) const { return ops::upsample_nearest(x, factor_); }

Tensor Upsample::backward(const Tensor& grad_out) {
    return ops::upsample_nearest_backward(grad_out, factor_);
}

std::string Upsample::describe() const {
    std::ostringstream os;
    os << "Upsample(x" << factor_ << ')';
    return os.str();
}

// --------------------------------------------------------------- Reshape ---

Tensor Reshape::forward(const Tensor& x) {
    cached_shape_ = x.shape();
    return infer(x);
}

Tensor Reshape::infer(const Tensor& x) const {
    Shape out{x.dim(0)};
    out.insert(out.end(), target_.begin(), target_.end());
    return x.reshaped(std::move(out));
}

Tensor Reshape::backward(const Tensor& grad_out) {
    require(!cached_shape_.empty(), "backward before forward");
    return grad_out.reshaped(cached_shape_);
}

std::string Reshape::describe() const { return "Reshape(to " + shape_to_string(target_) + ')'; }

}  // namespace c2pi::nn
