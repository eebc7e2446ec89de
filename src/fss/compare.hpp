#pragma once

/// \file compare.hpp
/// FSS ReLU material: interval-containment comparison built from DCF
/// pairs, plus the dealer/client shipment protocol.
///
/// The kFss backend computes ReLU(y) on an additively shared y with one
/// reconstruction round and local DCF evaluations. Per comparison the
/// dealer (the server, docs/PROTOCOL.md §4) samples a random mask r and
/// builds:
///
///   - K_a  = DCF key pair for alpha = r            with payload (1, r)
///   - K_b  = DCF key pair for alpha = r + 2^63     with payload (1, r)
///   - additive shares of r and of wrap*(1, r), wrap = 1{r >= 2^63}
///
/// Online, the parties reveal z = y + r (each sends its share of
/// y + r in the same round as the existing reveal_shares), then locally
///
///   (u_p, v_p) = Eval(K_b, p, z) - Eval(K_a, p, z) + wrap-constant_p
///   out_p      = z * u_p - v_p
///
/// which sums to 1{z - r in [0, 2^63)} * (z - r) = ReLU(y), matching
/// the signed drelu semantics b = 1{y >= 0}. Keys are input-independent,
/// so generation and shipment hoist into the preprocessing phase
/// (key_pool.hpp buffers batches; the transport's KEYS frames carry the
/// client halves).
///
/// One party's material for one comparison is a fixed-size record, the
/// unit of KEYS frames and key pools (little-endian):
///
///   r_share (8) | u_const (8) | v_const (8) | key_a | key_b
///
/// (u_const, v_const) is the party's share of wrap * (1, r); key_a and
/// key_b are serialized DCF keys (dcf.hpp). Records are never decoded
/// into another form: evaluation reads them in place.

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "fss/dcf.hpp"

namespace c2pi::core {
class ThreadPool;
}

namespace c2pi::crypto {
class ChaCha20Prg;
}

namespace c2pi::net {
class Transport;
}

namespace c2pi::fss {

class KeyPool;

/// Bytes of one party's record for one comparison.
inline constexpr std::size_t kReluKeyBytes = 8 + 8 + 8 + 2 * kDcfKeyBytes;

/// Allocator whose value-initialization leaves bytes unwritten. The
/// dealer writes every byte of its record buffers, so zero-filling
/// hundreds of MiB first would only add a serial pass (and serialize the
/// page faults the dealing threads otherwise take in parallel).
template <typename T>
struct UninitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = UninitAllocator<U>;
    };
    template <typename U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
};

using RecordBuffer = std::vector<std::uint8_t, UninitAllocator<std::uint8_t>>;

/// Both parties' records for a batch of comparisons, back to back.
struct ReluMaterial {
    RecordBuffer server;  ///< party 0 records
    RecordBuffer client;  ///< party 1 records: the KEYS payload
};

/// Dealer-side generation of `count` comparisons. Every random choice is
/// drawn from `prg` first, in comparison order — per comparison: r, the
/// two roots of K_a, the two roots of K_b, then the party-0 shares of r,
/// wrap and wrap * r — so the output depends only on the `prg` state,
/// not on the kernel tier or on `threads`. The trees then expand level by
/// level in fixed-size chunks of comparisons spread over `threads` (null
/// = serial).
[[nodiscard]] ReluMaterial deal_relu_material(crypto::ChaCha20Prg& prg, std::size_t count,
                                              const core::ThreadPool* threads = nullptr);

/// This party's additive share of the mask r of record k.
[[nodiscard]] Ring relu_mask_share(std::span<const std::uint8_t> records, std::size_t k);

/// Local online evaluation of z.size() comparisons: given this party's
/// records and the reconstructed masked values z = y + r, return this
/// party's additive shares of ReLU(y). Chunks of comparisons spread over
/// `threads` (null = serial); the result does not depend on it.
[[nodiscard]] std::vector<Ring> eval_relu_batch(std::span<const std::uint8_t> records,
                                                int party, std::span<const Ring> z,
                                                const core::ThreadPool* threads = nullptr);

/// Dealer side of one replenish round: generate `count` comparisons
/// (deal_relu_material), ship the client records in one KEYS frame, push
/// the server records into `pool`. No-op when count == 0 (no frame on the
/// wire, so the client must compute the same count and skip its recv
/// symmetrically).
void dealer_replenish(net::Transport& transport, crypto::ChaCha20Prg& prg, KeyPool& pool,
                      std::size_t count, const core::ThreadPool* threads = nullptr);

/// Client side: receive one KEYS frame and pool the shipped records.
/// Rejects with a typed c2pi::Error a payload that is not a whole number
/// of records (truncated shipment, corrupt frame) or whose record count
/// differs from the expected `count` (the two sides must agree on the
/// plan-derived schedule). No-op when count == 0.
void client_replenish(net::Transport& transport, KeyPool& pool, std::size_t count);

}  // namespace c2pi::fss
