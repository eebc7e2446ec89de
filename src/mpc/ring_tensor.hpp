#pragma once

/// \file ring_tensor.hpp
/// Tensor of Z_{2^64} elements — the secret-shared counterpart of Tensor.

#include <vector>

#include "core/fixed_point.hpp"
#include "tensor/tensor.hpp"

namespace c2pi::mpc {

struct RingTensor {
    Shape shape;
    std::vector<Ring> data;

    RingTensor() = default;
    explicit RingTensor(Shape s) : shape(std::move(s)) {
        data.assign(static_cast<std::size_t>(shape_numel(shape)), 0);
    }
    RingTensor(Shape s, std::vector<Ring> values) : shape(std::move(s)), data(std::move(values)) {
        require(static_cast<std::int64_t>(data.size()) == shape_numel(shape),
                "ring tensor value count mismatch");
    }

    [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
    [[nodiscard]] std::span<const Ring> span() const { return data; }
    [[nodiscard]] std::span<Ring> span() { return data; }
};

}  // namespace c2pi::mpc
