#pragma once

/// \file linear.hpp
/// HE-based secure linear layers over additive shares (the Cheetah linear
/// protocol; the Delphi offline pair generation is the same protocol with
/// the server's share zeroed — see DESIGN.md §6).
///
/// Protocol (conv): the client encrypts its input share group-by-group;
/// the server homomorphically convolves with its plaintext weights, folds
/// in its own share's plain convolution, the bias and a fresh random mask
/// -r, mod-switches and replies. The client decrypts its new share; the
/// server's new share is r (plus its plain contribution). Outputs carry
/// fixed-point scale 2f and must be truncated by the caller.
///
/// The server runs over a per-layer cache (`ConvLayerCache` /
/// `MatVecLayerCache`): every input-independent piece — encoder geometry,
/// the NTT-form weight plaintexts and their Shoup companions — is
/// precomputed once (CompiledModel construction) and only the
/// input-dependent work runs per inference. The per-response ciphertexts
/// are computed in parallel over the cache's thread pool but SENT in
/// deterministic channel order, so the wire transcript, the traffic
/// accounting and the client's view are bit-identical to a serial run.

#include <memory>

#include "he/encoding.hpp"
#include "mpc/context.hpp"
#include "mpc/ring_ops.hpp"

namespace c2pi::mpc {

/// Input-independent server precompute for one conv layer: encoder
/// geometry plus one NTT-form weight plaintext per (output channel,
/// input group) pair. `weights`/`bias2f` are borrowed views (the ring
/// conv of the server's own share still needs the raw weights); the
/// owner — CompiledModel's ServerLayerData — must outlive the cache.
struct ConvLayerCache {
    /// `precompute_weights = false` builds a client-side cache: encoder
    /// geometry and scatter indices only, no weight NTTs (the client
    /// never multiplies; a server handed such a cache throws).
    ConvLayerCache(const he::BfvContext& bfv, const he::ConvGeometry& geo,
                   std::span<const Ring> weights, std::span<const Ring> bias2f,
                   bool precompute_weights = true);

    he::ConvEncoder enc;
    std::span<const Ring> weights;
    std::span<const Ring> bias2f;
    std::vector<he::PlainNtt> w_ntt;  ///< [o * num_groups + g]
    /// Coefficient index of each output pixel (row-major), for the sparse
    /// mask fold (add_plain_at) — the scatter poly is zero elsewhere.
    std::vector<std::int64_t> scatter_idx;

    [[nodiscard]] const he::PlainNtt& weight_ntt(std::int64_t g, std::int64_t o) const {
        return w_ntt[static_cast<std::size_t>(o * enc.num_groups() + g)];
    }
};

/// Fully-connected counterpart: one NTT-form weight plaintext per output
/// block.
struct MatVecLayerCache {
    MatVecLayerCache(const he::BfvContext& bfv, std::int64_t in, std::int64_t out,
                     std::span<const Ring> weights, std::span<const Ring> bias2f,
                     bool precompute_weights = true);

    he::MatVecEncoder enc;
    std::int64_t in = 0, out = 0;
    std::span<const Ring> weights;
    std::span<const Ring> bias2f;
    std::vector<he::PlainNtt> w_ntt;                    ///< [block]
    std::vector<std::vector<std::int64_t>> scatter_idx; ///< [block][row]
};

/// Server side of the secure convolution over a precomputed layer cache
/// (its `weights` are ring-encoded [O,C,k,k], its `bias2f` — may be empty —
/// per-output-channel at scale 2^2f). `x_share` is the server's input
/// share ([C,H,W]); returns the server's output share ([O,OH,OW]
/// flattened).
[[nodiscard]] std::vector<Ring> he_conv_server(PartyContext& ctx, const ConvLayerCache& cache,
                                               std::span<const Ring> x_share);

/// Client side; `x_share` is the client's input share. The encoder
/// carries only public geometry, so the client reuses the compiled
/// artifact's encoder instead of rebuilding it per request.
[[nodiscard]] std::vector<Ring> he_conv_client(PartyContext& ctx, const he::ConvEncoder& enc,
                                               std::span<const Ring> x_share);

/// Fully-connected counterparts: weights [out,in] row-major.
[[nodiscard]] std::vector<Ring> he_matvec_server(PartyContext& ctx,
                                                 const MatVecLayerCache& cache,
                                                 std::span<const Ring> x_share);
[[nodiscard]] std::vector<Ring> he_matvec_client(PartyContext& ctx, const he::MatVecEncoder& enc,
                                                 std::span<const Ring> x_share);

}  // namespace c2pi::mpc
