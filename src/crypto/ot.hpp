#pragma once

/// \file ot.hpp
/// Oblivious transfer stack.
///
///  * Base OTs (128 of them) are delivered by a trusted-dealer setup
///    standing in for Naor-Pinkas (no big-integer/EC library offline; see
///    DESIGN.md §4, substitution 4). Their traffic is charged explicitly.
///  * IKNP OT extension (Ishai-Kilian-Nissim-Petrank 2003) is implemented
///    faithfully: PRG row expansion, u-matrix transmission, bit-matrix
///    transpose, correlation-robust hashing of columns. The transpose is
///    blocked: the 128 x n matrix is cut into 128 x 64 tiles, each loaded
///    as 64 two-lane words (row i and row 64 + i, 8 little-endian bytes
///    each) and transposed in six swap stages (Hacker's Delight), which
///    leaves whole column blocks that go straight into the output vectors.
///    The columns are then hashed in place in batches through the
///    kernel-dispatched CR hash (he::kernels::Kernels::cr_hash_blocks).
///    The sender XORs the u-matrix into its expanded rows in place, in
///    the received buffer, and each side frees its row matrix before
///    hashing.
///  * Derived functionalities: chosen-message 1-of-2 OT (blocks / u64 /
///    bytes), 1-of-N OT (the millionaire protocol's leaves), and GF(2)
///    Beaver "AND" triples.
///
/// Roles: the *sender* learns (m0, m1) pairs; the *receiver* learns m_b
/// for its choice bits b. In IKNP the extension sender plays base-OT
/// receiver and vice versa, which the setup factory takes care of.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fixed_point.hpp"
#include "crypto/block.hpp"
#include "crypto/chacha20.hpp"
#include "net/channel.hpp"

namespace c2pi::crypto {

inline constexpr std::size_t kOtSecurityParam = 128;

/// Base-OT state held by the party that will act as extension *sender*:
/// one key per base OT, selected by its random choice bits s.
struct OtSetupSender {
    std::array<Block128, kOtSecurityParam> keys;  ///< k_{s_i}
    std::array<std::uint8_t, kOtSecurityParam> s; ///< choice bits
};

/// Base-OT state held by the extension *receiver*: both keys per base OT.
struct OtSetupReceiver {
    std::array<Block128, kOtSecurityParam> keys0;
    std::array<Block128, kOtSecurityParam> keys1;
};

struct OtSetupPair {
    OtSetupSender sender;
    OtSetupReceiver receiver;
    /// Serialized size of the Naor-Pinkas exchange this setup replaces;
    /// engines charge this many bytes to the offline phase.
    [[nodiscard]] static std::size_t setup_traffic_bytes() {
        return kOtSecurityParam * 3 * sizeof(Block128);
    }
};

/// Deterministic dealer: both parties derive consistent base OTs from a
/// shared session seed.
[[nodiscard]] OtSetupPair dealer_base_ots(const Block128& session_seed);

/// How much of each random-OT hash an extension computes.
enum class RotHash {
    kFull,   ///< 128-bit outputs, cr_hash(tweak, column)
    kLow64,  ///< .lo only (= cr_hash_u64), .hi zero: skips the second SipHash key
};

/// Random OTs produced by one IKNP extension.
struct RotSenderOutput {
    std::vector<Block128> m0, m1;
};
struct RotReceiverOutput {
    std::vector<Block128> m;  ///< m[j] = (b_j ? m1[j] : m0[j])
};

/// IKNP extension sender endpoint (stateful: tweak counter advances so
/// labels never repeat across extensions).
class IknpSender {
public:
    explicit IknpSender(OtSetupSender setup) : setup_(setup) {}

    /// Receive the u-matrix for n OTs and output (m0, m1) pairs. The hash
    /// mode changes no wire byte; both endpoints of one extension may
    /// pick kLow64 when only .lo is read.
    [[nodiscard]] RotSenderOutput extend(net::Transport& t, std::size_t n,
                                         RotHash hash = RotHash::kFull);

private:
    OtSetupSender setup_;
    std::uint64_t round_ = 0;
    std::uint64_t tweak_ = 0;
};

/// IKNP extension receiver endpoint.
class IknpReceiver {
public:
    explicit IknpReceiver(OtSetupReceiver setup) : setup_(setup) {}

    /// Run one extension for the given choice bits (one bit per byte).
    [[nodiscard]] RotReceiverOutput extend(net::Transport& t,
                                           std::span<const std::uint8_t> choices,
                                           RotHash hash = RotHash::kFull);

private:
    OtSetupReceiver setup_;
    std::uint64_t round_ = 0;
    std::uint64_t tweak_ = 0;
};

// -- chosen-message 1-of-2 OT -------------------------------------------------

/// Sender side: transfer exactly one of (messages0[j], messages1[j]) per OT.
void ot_send_blocks(net::Transport& t, IknpSender& ext, std::span<const Block128> messages0,
                    std::span<const Block128> messages1);
[[nodiscard]] std::vector<Block128> ot_recv_blocks(net::Transport& t, IknpReceiver& ext,
                                                   std::span<const std::uint8_t> choices);

/// Chosen-message 1-of-2 OT on 64-bit ring elements (the secure
/// multiplexer's workhorse). Comm: 16 bytes per OT.
void ot_send_u64_pairs(net::Transport& t, IknpSender& ext, std::span<const Ring> messages0,
                       std::span<const Ring> messages1);
[[nodiscard]] std::vector<Ring> ot_recv_u64s(net::Transport& t, IknpReceiver& ext,
                                             std::span<const std::uint8_t> choices);

// -- 1-of-N OT ------------------------------------------------------------------

/// Sender holds n_ots groups of N byte-messages (N a power of two, laid
/// out flat: group j occupies messages[j*N .. j*N+N)). The receiver picks
/// one index per group. Built from log2(N) random OTs per group plus N
/// masked bytes (DESIGN.md §6).
void ot_1_of_n_send(net::Transport& t, IknpSender& ext, std::span<const std::uint8_t> messages,
                    std::size_t n_groups, std::size_t n_options);
[[nodiscard]] std::vector<std::uint8_t> ot_1_of_n_recv(net::Transport& t, IknpReceiver& ext,
                                                       std::span<const std::uint16_t> indices,
                                                       std::size_t n_options);

// -- GF(2) Beaver triples --------------------------------------------------------

/// XOR-shared AND triples: a, b, c with (a0^a1)&(b0^b1) = c0^c1. Each
/// party calls its role function; party 0 must be the IknpSender owner
/// for the first pass and receiver for the second (handled internally by
/// taking both endpoints).
struct BitTriples {
    std::vector<std::uint8_t> a, b, c;  // one bit per byte
};
[[nodiscard]] BitTriples bit_triples_party(net::Transport& t, IknpSender& send_ext,
                                           IknpReceiver& recv_ext, std::size_t n,
                                           ChaCha20Prg& prg);

}  // namespace c2pi::crypto
