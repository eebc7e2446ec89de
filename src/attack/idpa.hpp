#pragma once

/// \file idpa.hpp
/// Inference-data-privacy attacks (IDPAs): the adversarial server tries to
/// reconstruct the client's input x from an intermediate activation
/// M_l(x) (paper §II). The attack interface plus the SSIM evaluation
/// harness that Algorithm 1 and Figs. 1/4/5/6/8 are built on.

#include <functional>
#include <memory>

#include "data/synthetic.hpp"
#include "nn/graph.hpp"

namespace c2pi::attack {

class Idpa {
public:
    virtual ~Idpa() = default;
    Idpa(const Idpa&) = delete;
    Idpa& operator=(const Idpa&) = delete;

    /// Prepare the attack for a cut point (e.g., train the inversion
    /// network on the attacker's own data). `noise_lambda` is the uniform
    /// share-noise magnitude the defense adds — the attacker knows it and
    /// trains against it (strongest-attack convention, paper §IV-A).
    virtual void fit(nn::Graph& model, const nn::CutPoint& cut,
                     const data::SyntheticImageDataset& dataset, float noise_lambda) = 0;

    /// Reconstruct an input estimate from an activation (batch of one).
    [[nodiscard]] virtual Tensor recover(nn::Graph& model, const nn::CutPoint& cut,
                                         const Tensor& activation) = 0;

    [[nodiscard]] virtual std::string name() const = 0;

protected:
    Idpa() = default;
};

using IdpaFactory = std::function<std::unique_ptr<Idpa>()>;

struct IdpaEvaluation {
    double avg_ssim = 0.0;
    double avg_psnr = 0.0;
    std::size_t samples = 0;
};

/// Fit the attack, then recover `n_eval` test images from their (noised)
/// activations at `cut` and report average SSIM/PSNR against the truth.
[[nodiscard]] IdpaEvaluation evaluate_idpa(Idpa& attack, nn::Graph& model,
                                           const nn::CutPoint& cut,
                                           const data::SyntheticImageDataset& dataset,
                                           std::size_t n_eval, float noise_lambda,
                                           std::uint64_t seed);

/// Noised activation M_l(x) + U(-lambda, lambda), batch of one.
[[nodiscard]] Tensor noised_activation(nn::Graph& model, const nn::CutPoint& cut,
                                       const Tensor& image_chw, float noise_lambda, Rng& rng);

}  // namespace c2pi::attack
