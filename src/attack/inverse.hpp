#pragma once

/// \file inverse.hpp
/// Inverse-network IDPAs: INA (He et al. 2019), EINA (Li et al. 2022,
/// residual blocks), and the paper's contribution DINA (§III-B):
///
///  * the target prefix M_l is partitioned into sub-blocks that each end
///    with a ReLU;
///  * the inversion model is a chain of *basic inverse blocks* (ResNet
///    basic block + dilated convolution), one per sub-block, run from the
///    activation back to the image;
///  * DINA adds distillation points between sub-blocks and trains with
///    L = sum_j alpha_j ||D_j - I_j||^2 + alpha_0 ||x - x_hat||^2 (Eq. 1),
///    with monotonically increasing coefficients alpha_0 < alpha_1 < ...
///    (DINA-c1; uniform coefficients give the DINA-c2 ablation of Fig. 5).

#include "attack/idpa.hpp"

namespace c2pi::attack {

enum class InverseKind {
    kPlain,      ///< INA: conv+ReLU blocks, no distillation
    kResidual,   ///< EINA: residual basic blocks, no distillation
    kDistilled,  ///< DINA: basic inverse blocks + distillation loss
};

struct InverseConfig {
    int epochs = 8;
    std::int64_t batch_size = 8;
    std::size_t train_samples = 256;  ///< attacker-side training subset
    float lr = 0.01F;
    /// Distillation coefficients (DINA only): alpha_0, alpha_1 and the
    /// geometric growth factor alpha_j = growth * alpha_{j-1} (j >= 2).
    /// The paper's DINA-c1 uses (1, 3, 2); DINA-c2 uses (1, 1, 1).
    float alpha0 = 1.0F;
    float alpha1 = 3.0F;
    float alpha_growth = 2.0F;
    std::uint64_t seed = kDefaultSeed;
};

class InverseNetAttack final : public Idpa {
public:
    explicit InverseNetAttack(InverseKind kind, InverseConfig config = {})
        : kind_(kind), config_(config) {}

    void fit(nn::Graph& model, const nn::CutPoint& cut,
             const data::SyntheticImageDataset& dataset, float noise_lambda) override;

    [[nodiscard]] Tensor recover(nn::Graph& model, const nn::CutPoint& cut,
                                 const Tensor& activation) override;

    [[nodiscard]] std::string name() const override {
        switch (kind_) {
            case InverseKind::kPlain: return "INA";
            case InverseKind::kResidual: return "EINA";
            case InverseKind::kDistilled: return "DINA";
        }
        return "?";
    }

    /// Number of basic inverse blocks after fit() (exposed for tests).
    [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

private:
    /// One basic inverse block: inverts one target sub-block.
    struct InverseBlock {
        nn::Graph net;
        Shape in_shape;   ///< per-sample shape it consumes
        Shape out_shape;  ///< per-sample shape it produces
    };

    void build(nn::Graph& model, const nn::CutPoint& cut, const Shape& image_chw);

    /// Target-model activations at the sub-block boundaries for a batch
    /// (D_m = attack input first, ..., D_1 last-but-one, then the image).
    [[nodiscard]] std::vector<Tensor> target_boundary_activations(nn::Graph& model,
                                                                  const Tensor& batch) const;

    InverseKind kind_;
    InverseConfig config_;
    std::vector<InverseBlock> blocks_;          ///< execution order: activation -> image
    std::vector<std::size_t> boundary_layers_;  ///< flat indices ending each sub-block
    Shape image_shape_;
};

}  // namespace c2pi::attack
