#pragma once

/// \file tensor.hpp
/// Dense float tensor (row-major, contiguous) used by the plaintext NN
/// stack, the IDPA attacks, and as the source/sink of fixed-point MPC
/// tensors. Layout convention is NCHW for 4-D tensors.

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace c2pi {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape.
[[nodiscard]] inline std::int64_t shape_numel(const Shape& s) {
    std::int64_t n = 1;
    for (const auto d : s) n *= d;
    return n;
}

[[nodiscard]] std::string shape_to_string(const Shape& s);

/// Contiguous row-major float tensor with value semantics.
class Tensor {
public:
    Tensor() = default;

    explicit Tensor(Shape shape) : shape_(std::move(shape)) {
        for (const auto d : shape_) require(d > 0, "tensor dims must be positive");
        data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0F);
    }

    Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)), data_(std::move(values)) {
        require(static_cast<std::int64_t>(data_.size()) == shape_numel(shape_),
                "value count does not match shape");
    }

    // -- factories ---------------------------------------------------------
    [[nodiscard]] static Tensor full(Shape shape, float value);
    /// i.i.d. N(0, stddev^2) entries.
    [[nodiscard]] static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0F);
    /// i.i.d. U[lo, hi) entries.
    [[nodiscard]] static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);

    // -- introspection ------------------------------------------------------
    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
    [[nodiscard]] std::int64_t dim(std::int64_t i) const {
        require(i >= 0 && i < rank(), "dim index out of range");
        return shape_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
    [[nodiscard]] bool empty() const { return data_.empty(); }
    [[nodiscard]] bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

    // -- element access -----------------------------------------------------
    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }

    [[nodiscard]] float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

    /// 4-D accessor (NCHW).
    [[nodiscard]] float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
        return data_[static_cast<std::size_t>(offset4(n, c, h, w))];
    }
    [[nodiscard]] float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
        return data_[static_cast<std::size_t>(offset4(n, c, h, w))];
    }
    /// 2-D accessor (rows, cols).
    [[nodiscard]] float& at(std::int64_t r, std::int64_t c) {
        return data_[static_cast<std::size_t>(r * shape_[1] + c)];
    }
    [[nodiscard]] float at(std::int64_t r, std::int64_t c) const {
        return data_[static_cast<std::size_t>(r * shape_[1] + c)];
    }

    // -- mutation -----------------------------------------------------------
    void fill(float value) { std::fill(data_.begin(), data_.end(), value); }
    void zero() { fill(0.0F); }

    /// Same data, new shape (numel must match).
    [[nodiscard]] Tensor reshaped(Shape new_shape) const;

    /// Deep equality within absolute tolerance.
    [[nodiscard]] bool allclose(const Tensor& other, float atol = 1e-5F) const;

    [[nodiscard]] const std::vector<float>& storage() const { return data_; }
    [[nodiscard]] std::vector<float>& storage() { return data_; }

private:
    [[nodiscard]] std::int64_t offset4(std::int64_t n, std::int64_t c, std::int64_t h,
                                       std::int64_t w) const {
        return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    }

    Shape shape_;
    std::vector<float> data_;
};

}  // namespace c2pi
