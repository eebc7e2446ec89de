#pragma once

/// \file dcf.hpp
/// Distributed comparison function (DCF) over the 64-bit ring — the
/// function-secret-sharing primitive behind the kFss nonlinear backend.
///
/// A DCF for (alpha, beta) splits the comparison function
///     f(x) = beta if x < alpha else 0        (unsigned, over Z_{2^64})
/// into two keys k0, k1 such that Eval(0, k0, x) + Eval(1, k1, x) = f(x)
/// for every x, while either key alone reveals nothing about alpha or
/// beta. The construction is the GGM-tree DCF of Boyle et al.
/// (EUROCRYPT 2021, "Function Secret Sharing for Mixed-Mode and
/// Fixed-Point Secure Computation"): one 128-bit seed per party walks a
/// depth-64 binary tree, with one correction word per level plus a final
/// output correction. Keys are input-independent, so generation hoists
/// into the preprocessing phase (compare.hpp builds ReLU material from
/// pairs of DCFs; key_pool.hpp buffers shipped batches).
///
/// The payload group is Z_{2^64} x Z_{2^64} (`DcfPayload`): the interval-
/// containment trick needs shares of both the predicate bit and
/// predicate*mask, and one 128-bit PRG block converts to exactly one
/// payload. A node expansion is block 0 of ChaCha20 keyed by the node
/// seed (64 bytes -> left/right child seeds + left/right payload
/// converts). Generation and evaluation both run over a batch of DCFs
/// one tree level at a time: every seed of a level expands in one call
/// to the multi-key ChaCha20 kernel (he/kernels.hpp), then the cheap
/// per-DCF correction logic runs over the expanded blocks. The result is
/// the same for any batch size, so a batch of one is the single-DCF case.
///
/// A key exists only in its serialized form (`kDcfKeyBytes`, layout
/// below): the dealer writes keys straight into KEYS records and
/// evaluation reads them in place.

#include <cstdint>
#include <span>

#include "core/fixed_point.hpp"
#include "crypto/block.hpp"

namespace c2pi::fss {

inline constexpr int kDomainBits = 64;

/// ChaCha20 nonce of every node expansion. Distinct from every nonce the
/// repo derives elsewhere (party PRGs use nonce = party + 100, the
/// client key PRG uses 3), so tree seeds never collide with another
/// ChaCha20 stream even under equal keys.
inline constexpr std::uint64_t kNodeNonce = 0xF55;

/// One party's serialized DCF key, little-endian:
///     root seed (16) | seed_cw[64] (16 each) | value_cw[64] (u, v; 16 each)
///     | t_cw_left (8) | t_cw_right (8) | final_cw (u, v; 16)
/// Bit i of t_cw_left/right is level i's left/right control correction.
/// The party id (0 or 1) is NOT part of the key — evaluation takes it
/// explicitly, matching the server/client roles of the session.
inline constexpr std::size_t kDcfKeyBytes =
    16 + kDomainBits * 16 + kDomainBits * 16 + 8 + 8 + 16;

/// Element of the DCF payload group Z_{2^64} x Z_{2^64}, componentwise
/// addition. `u` carries the comparison predicate, `v` carries
/// predicate * mask (see compare.hpp).
struct DcfPayload {
    Ring u = 0;
    Ring v = 0;

    friend DcfPayload operator+(const DcfPayload& a, const DcfPayload& b) {
        return {a.u + b.u, a.v + b.v};
    }
    friend DcfPayload operator-(const DcfPayload& a, const DcfPayload& b) {
        return {a.u - b.u, a.v - b.v};
    }
    DcfPayload& operator+=(const DcfPayload& b) {
        u += b.u;
        v += b.v;
        return *this;
    }
    [[nodiscard]] DcfPayload negated() const { return {Ring{0} - u, Ring{0} - v}; }
    friend bool operator==(const DcfPayload&, const DcfPayload&) = default;
};

/// One DCF to generate: f(x) = beta if x < alpha else 0. `root` holds the
/// two parties' root seeds (the dealer's local randomness; in the session
/// protocol the server plays dealer, docs/PROTOCOL.md §4); party p's key
/// is written to key[p] (kDcfKeyBytes).
struct DcfGenJob {
    Ring alpha = 0;
    DcfPayload beta;
    crypto::Block128 root[2];
    std::uint8_t* key[2] = {nullptr, nullptr};
};

/// One DCF evaluation: a serialized key and the point x.
struct DcfEvalJob {
    const std::uint8_t* key = nullptr;
    Ring x = 0;
};

/// Generate every job's key pair, level by level across the batch.
void dcf_gen_batch(std::span<const DcfGenJob> jobs);

/// out[j] = party's share of f_j(x_j) for every job; the two parties'
/// results sum to f_j(x_j) in the payload group.
void dcf_eval_batch(int party, std::span<const DcfEvalJob> jobs, std::span<DcfPayload> out);

}  // namespace c2pi::fss
