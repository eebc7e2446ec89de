#pragma once

/// \file boundary.hpp
/// Algorithm 1 of the paper: crypto-clear boundary search.
///
/// Phase 1 sweeps cut points from the tail toward the head, running the
/// configured IDPA at each, until the attack first *succeeds* (average
/// SSIM >= sigma); the potential boundary is the cut just after that.
/// Phase 2 verifies the noised-input accuracy at the boundary and pushes
/// it later until the drop from baseline is at most delta (the paper uses
/// 2.5%, matching SNL/SENet conventions).

#include <functional>

#include "attack/idpa.hpp"

namespace c2pi::pi {

struct BoundaryConfig {
    double ssim_threshold = 0.3;       ///< sigma — IDPA failure threshold
    double max_accuracy_drop = 0.025;  ///< delta — tolerated absolute accuracy drop
    float noise_lambda = 0.1F;         ///< lambda — client share-noise magnitude
    std::size_t attack_eval_samples = 24;
    std::size_t accuracy_samples = 192;
    bool include_half_points = true;   ///< sweep ".5" (post-ReLU) cuts too
    std::uint64_t seed = kDefaultSeed;
};

struct SsimProbe {
    nn::CutPoint cut;
    double avg_ssim = 0.0;
};

struct AccuracyProbe {
    nn::CutPoint cut;
    double noised_accuracy = 0.0;
};

struct BoundaryResult {
    nn::CutPoint boundary;
    double baseline_accuracy = 0.0;
    double boundary_accuracy = 0.0;
    std::vector<SsimProbe> ssim_sweep;       ///< phase-1 probes, tail to head
    std::vector<AccuracyProbe> accuracy_sweep;  ///< phase-2 probes
};

/// All sweepable cut points of a model: linear ops 1 .. n-1, optionally
/// with their ".5" (post-ReLU) twins, in ascending order. The final
/// classifier op is excluded (cutting there is full PI).
[[nodiscard]] std::vector<nn::CutPoint> candidate_cuts(const nn::Graph& model,
                                                       bool include_half_points);

/// Run Algorithm 1 with a caller-supplied phase-1 probe returning the
/// average attack SSIM at a cut (e.g. memoized values). If no cut meets
/// the accuracy budget, the boundary falls back to the last sweepable cut
/// and reports the last phase-2 probe's accuracy.
[[nodiscard]] BoundaryResult search_boundary(
    nn::Graph& model, const data::SyntheticImageDataset& dataset,
    const std::function<double(const nn::CutPoint&)>& probe, const BoundaryConfig& config);

/// Run Algorithm 1. `make_attack` supplies a fresh IDPA per probe (the
/// paper uses DINA for the final system; MLA/EINA for comparison).
[[nodiscard]] BoundaryResult search_boundary(nn::Graph& model,
                                             const data::SyntheticImageDataset& dataset,
                                             const attack::IdpaFactory& make_attack,
                                             const BoundaryConfig& config);

}  // namespace c2pi::pi
