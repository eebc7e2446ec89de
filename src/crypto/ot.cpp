#include "crypto/ot.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/hash.hpp"

namespace c2pi::crypto {

namespace {

/// Fill one row of the IKNP matrix (packed bits) from a base-OT key.
void expand_row(const Block128& key, std::uint64_t round, std::span<std::uint8_t> row) {
    ChaCha20Prg prg(key, /*nonce=*/round + 1);
    prg.fill_bytes(row);
}

/// One row word of a 64-row half in each lane: lane 0 of tile word i
/// holds row i, lane 1 row 64 + i, so both halves of the 128-row matrix
/// go through the same vector operations, and each transposed word is a
/// whole column block {lo, hi}.
using RowPair = std::uint64_t __attribute__((vector_size(16)));

/// One stage of the in-lane 64 x 64 bit transpose: swap the off-diagonal
/// W x W blocks of every 2W x 2W diagonal block. `mask` selects the bits
/// whose index has bit W clear.
template <unsigned W>
void transpose_stage(RowPair a[64], std::uint64_t mask) {
    const RowPair m = {mask, mask};
    for (std::size_t base = 0; base < 64; base += 2 * W) {
        for (std::size_t i = base; i < base + W; ++i) {
            const RowPair t = ((a[i] >> W) ^ a[i + W]) & m;
            a[i + W] ^= t;
            a[i] ^= t << W;
        }
    }
}

/// In-place transpose of the 64 x 64 bit matrix in each lane: afterwards
/// bit i of a[j] is what bit j of a[i] was (Hacker's Delight §7-3). The
/// stage widths are template arguments so every stage unrolls.
void transpose64x2(RowPair a[64]) {
    transpose_stage<32>(a, 0x00000000FFFFFFFFULL);
    transpose_stage<16>(a, 0x0000FFFF0000FFFFULL);
    transpose_stage<8>(a, 0x00FF00FF00FF00FFULL);
    transpose_stage<4>(a, 0x0F0F0F0F0F0F0F0FULL);
    transpose_stage<2>(a, 0x3333333333333333ULL);
    transpose_stage<1>(a, 0x5555555555555555ULL);
}

/// Columns of the 128 x n IKNP bit matrix: bit i of out[j] (lo holds rows
/// 0..63, hi rows 64..127) is bit j of row i. Rows are packed back to
/// back, ceil(n / 8) bytes each, bit j of a row being bit j % 8 of its
/// byte j / 8; so the 8 row bytes from column c0 on, loaded as a
/// little-endian word, hold column c0 + b at bit b. The matrix is cut
/// into 128 x 64 tiles, and one transpose64x2 turns a tile into its 64
/// column blocks.
void transpose_columns(const std::uint8_t* rows, std::size_t n, Block128* out) {
    static_assert(sizeof(RowPair) == sizeof(Block128));
    const std::size_t stride = (n + 7) / 8;
    RowPair tile[64];
    for (std::size_t c0 = 0; c0 < n; c0 += 64) {
        const std::uint8_t* lo_rows = rows + c0 / 8;
        const std::uint8_t* hi_rows = lo_rows + 64 * stride;
        const std::size_t take = std::min<std::size_t>(8, stride - c0 / 8);
        for (std::size_t i = 0; i < 64; ++i) {
            std::uint64_t lo = 0, hi = 0;
            if (take == 8) {
                std::memcpy(&lo, lo_rows + i * stride, 8);
                std::memcpy(&hi, hi_rows + i * stride, 8);
            } else {
                std::memcpy(&lo, lo_rows + i * stride, take);
                std::memcpy(&hi, hi_rows + i * stride, take);
            }
            tile[i] = RowPair{lo, hi};
        }
        transpose64x2(tile);
        std::memcpy(out + c0, tile, std::min<std::size_t>(64, n - c0) * sizeof(Block128));
    }
}

}  // namespace

OtSetupPair dealer_base_ots(const Block128& session_seed) {
    ChaCha20Prg prg(session_seed, /*nonce=*/0xBA5E);
    OtSetupPair pair;
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        const Block128 k0 = prg.next_block();
        const Block128 k1 = prg.next_block();
        const std::uint8_t s = static_cast<std::uint8_t>(prg.next_u64() & 1U);
        pair.receiver.keys0[i] = k0;
        pair.receiver.keys1[i] = k1;
        pair.sender.keys[i] = s ? k1 : k0;
        pair.sender.s[i] = s;
    }
    return pair;
}

RotReceiverOutput IknpReceiver::extend(net::Transport& t, std::span<const std::uint8_t> choices,
                                        RotHash hash) {
    const std::size_t n = choices.size();
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;

    std::vector<std::uint8_t> r_packed(nbytes, 0);
    for (std::size_t j = 0; j < n; ++j)
        if (choices[j]) r_packed[j / 8] |= static_cast<std::uint8_t>(1U << (j % 8));

    // Row i of T is G(k0_i); row i of U is T_i ^ G(k1_i) ^ r.
    std::vector<std::uint8_t> t_flat(kOtSecurityParam * nbytes);
    {
        std::vector<std::uint8_t> u_flat(kOtSecurityParam * nbytes);
        for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
            const std::span<std::uint8_t> t_row(t_flat.data() + i * nbytes, nbytes);
            const std::span<std::uint8_t> u_row(u_flat.data() + i * nbytes, nbytes);
            expand_row(setup_.keys0[i], round_, t_row);
            expand_row(setup_.keys1[i], round_, u_row);
            for (std::size_t b = 0; b < nbytes; ++b) u_row[b] ^= t_row[b] ^ r_packed[b];
        }
        t.send_bytes(u_flat);
    }

    RotReceiverOutput out;
    out.m.resize(n);
    transpose_columns(t_flat.data(), n, out.m.data());
    t_flat = std::vector<std::uint8_t>();  // free T before hashing
    cr_hash_many(out.m, out.m, tweak_, {}, hash == RotHash::kLow64);
    ++round_;
    tweak_ += n;
    return out;
}

RotSenderOutput IknpSender::extend(net::Transport& t, std::size_t n, RotHash hash) {
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;
    RotSenderOutput out;
    {
        // Q_i = G(k_{s_i}) ^ s_i U_i, built in place over the received U.
        auto q_flat = t.recv_bytes();
        require(q_flat.size() == kOtSecurityParam * nbytes, "IKNP u-matrix size mismatch");
        std::vector<std::uint8_t> g_row(nbytes);
        for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
            const std::span<std::uint8_t> q_row(q_flat.data() + i * nbytes, nbytes);
            if (setup_.s[i]) {
                expand_row(setup_.keys[i], round_, g_row);
                for (std::size_t b = 0; b < nbytes; ++b) q_row[b] ^= g_row[b];
            } else {
                expand_row(setup_.keys[i], round_, q_row);
            }
        }
        out.m0.resize(n);
        transpose_columns(q_flat.data(), n, out.m0.data());
    }
    Block128 s_block{};
    for (std::size_t i = 0; i < 64; ++i)
        s_block.lo |= static_cast<std::uint64_t>(setup_.s[i]) << i;
    for (std::size_t i = 0; i < 64; ++i)
        s_block.hi |= static_cast<std::uint64_t>(setup_.s[64 + i]) << i;

    // m1 hashes q ^ s, so it is computed before m0 hashes q in place.
    const bool lo_only = hash == RotHash::kLow64;
    out.m1.resize(n);
    cr_hash_many(out.m0, out.m1, tweak_, s_block, lo_only);
    cr_hash_many(out.m0, out.m0, tweak_, {}, lo_only);
    ++round_;
    tweak_ += n;
    return out;
}

// ------------------------------------------------------- chosen-message OT ---

void ot_send_blocks(net::Transport& t, IknpSender& ext, std::span<const Block128> messages0,
                    std::span<const Block128> messages1) {
    require(messages0.size() == messages1.size(), "OT message count mismatch");
    const std::size_t n = messages0.size();
    const auto rot = ext.extend(t, n);
    std::vector<std::uint8_t> payload(n * 32);
    for (std::size_t j = 0; j < n; ++j) {
        (messages0[j] ^ rot.m0[j]).to_bytes(payload.data() + 32 * j);
        (messages1[j] ^ rot.m1[j]).to_bytes(payload.data() + 32 * j + 16);
    }
    t.send_bytes(payload);
}

std::vector<Block128> ot_recv_blocks(net::Transport& t, IknpReceiver& ext,
                                     std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    const auto rot = ext.extend(t, choices);
    const auto payload = t.recv_bytes();
    require(payload.size() == n * 32, "OT payload size mismatch");
    std::vector<Block128> out(n);
    for (std::size_t j = 0; j < n; ++j) {
        const Block128 masked =
            Block128::from_bytes(payload.data() + 32 * j + (choices[j] ? 16 : 0));
        out[j] = masked ^ rot.m[j];
    }
    return out;
}

void ot_send_u64_pairs(net::Transport& t, IknpSender& ext, std::span<const Ring> messages0,
                       std::span<const Ring> messages1) {
    require(messages0.size() == messages1.size(), "OT message count mismatch");
    const std::size_t n = messages0.size();
    const auto rot = ext.extend(t, n, RotHash::kLow64);
    std::vector<Ring> payload(2 * n);
    for (std::size_t j = 0; j < n; ++j) {
        payload[2 * j] = messages0[j] ^ rot.m0[j].lo;
        payload[2 * j + 1] = messages1[j] ^ rot.m1[j].lo;
    }
    t.send_u64s(payload);
}

std::vector<Ring> ot_recv_u64s(net::Transport& t, IknpReceiver& ext,
                               std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    const auto rot = ext.extend(t, choices, RotHash::kLow64);
    const auto payload = t.recv_u64s();
    require(payload.size() == 2 * n, "OT payload size mismatch");
    std::vector<Ring> out(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = payload[2 * j + (choices[j] ? 1 : 0)] ^ rot.m[j].lo;
    return out;
}

// ---------------------------------------------------------------- 1-of-N OT ---

namespace {
std::size_t log2_exact(std::size_t n) {
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    require((std::size_t{1} << bits) == n, "1-of-N OT requires power-of-two N");
    return bits;
}
}  // namespace

void ot_1_of_n_send(net::Transport& t, IknpSender& ext, std::span<const std::uint8_t> messages,
                    std::size_t n_groups, std::size_t n_options) {
    const std::size_t log_n = log2_exact(n_options);
    require(messages.size() == n_groups * n_options, "1-of-N message layout mismatch");
    const auto rot = ext.extend(t, n_groups * log_n);

    // Pad j of a group XORs the low bytes of H(j log N + i, key_i(bit i
    // of j)) over i < log N. The keys are laid out in tweak order so one
    // batch of N log N hashes (tweaks 0, 1, ...) covers the group.
    std::vector<Block128> keys(n_options * log_n);
    std::vector<std::uint8_t> payload(n_groups * n_options);
    for (std::size_t g = 0; g < n_groups; ++g) {
        for (std::size_t i = 0; i < log_n; ++i) {
            const Block128 key[2] = {rot.m0[g * log_n + i], rot.m1[g * log_n + i]};
            for (std::size_t j = 0; j < n_options; ++j) keys[j * log_n + i] = key[(j >> i) & 1U];
        }
        cr_hash_many(keys, keys, 0, {}, /*lo_only=*/true);
        for (std::size_t j = 0; j < n_options; ++j) {
            std::uint8_t pad = 0;
            for (std::size_t i = 0; i < log_n; ++i)
                pad ^= static_cast<std::uint8_t>(keys[j * log_n + i].lo);
            payload[g * n_options + j] = messages[g * n_options + j] ^ pad;
        }
    }
    t.send_bytes(payload);
}

std::vector<std::uint8_t> ot_1_of_n_recv(net::Transport& t, IknpReceiver& ext,
                                         std::span<const std::uint16_t> indices,
                                         std::size_t n_options) {
    const std::size_t log_n = log2_exact(n_options);
    const std::size_t n_groups = indices.size();
    std::vector<std::uint8_t> choices(n_groups * log_n);
    for (std::size_t g = 0; g < n_groups; ++g) {
        require(indices[g] < n_options, "1-of-N index out of range");
        for (std::size_t i = 0; i < log_n; ++i)
            choices[g * log_n + i] = static_cast<std::uint8_t>((indices[g] >> i) & 1U);
    }
    const auto rot = ext.extend(t, choices);
    const auto payload = t.recv_bytes();
    require(payload.size() == n_groups * n_options, "1-of-N payload size mismatch");

    std::vector<Block128> pads(log_n);
    std::vector<std::uint8_t> out(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
        const std::size_t j = indices[g];
        cr_hash_many(std::span(rot.m).subspan(g * log_n, log_n), pads, j * log_n, {},
                     /*lo_only=*/true);
        std::uint8_t pad = 0;
        for (const auto& p : pads) pad ^= static_cast<std::uint8_t>(p.lo);
        out[g] = payload[g * n_options + j] ^ pad;
    }
    return out;
}

// ------------------------------------------------------------- bit triples ---

namespace {

/// One cross-term pass: the sender holds bits `a`, the receiver chose bits
/// `b`; afterwards sender_share ^ receiver_share = a & b elementwise.
std::vector<std::uint8_t> cross_term_send(net::Transport& t, IknpSender& ext,
                                          std::span<const std::uint8_t> a) {
    const std::size_t n = a.size();
    const auto rot = ext.extend(t, n, RotHash::kLow64);
    std::vector<std::uint8_t> shares(n), corrections((n + 7) / 8, 0);
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint8_t t0 = rot.m0[j].lo & 1U;
        const std::uint8_t t1 = rot.m1[j].lo & 1U;
        shares[j] = t0;
        const std::uint8_t c = static_cast<std::uint8_t>(t0 ^ t1 ^ a[j]);
        corrections[j / 8] |= static_cast<std::uint8_t>(c << (j % 8));
    }
    t.send_bytes(corrections);
    return shares;
}

std::vector<std::uint8_t> cross_term_recv(net::Transport& t, IknpReceiver& ext,
                                          std::span<const std::uint8_t> b) {
    const std::size_t n = b.size();
    const auto rot = ext.extend(t, b, RotHash::kLow64);
    const auto corrections = t.recv_bytes();
    require(corrections.size() == (n + 7) / 8, "cross-term correction size mismatch");
    std::vector<std::uint8_t> shares(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint8_t tb = rot.m[j].lo & 1U;
        const std::uint8_t c = (corrections[j / 8] >> (j % 8)) & 1U;
        shares[j] = b[j] ? static_cast<std::uint8_t>(tb ^ c) : tb;
    }
    return shares;
}

}  // namespace

BitTriples bit_triples_party(net::Transport& t, IknpSender& send_ext, IknpReceiver& recv_ext,
                             std::size_t n, ChaCha20Prg& prg) {
    BitTriples out;
    out.a = prg.next_bits(n);
    out.b = prg.next_bits(n);
    out.c.resize(n);

    std::vector<std::uint8_t> cross1, cross2;
    if (t.party_id() == 0) {
        cross1 = cross_term_send(t, send_ext, out.a);   // a0 & b1
        cross2 = cross_term_recv(t, recv_ext, out.b);   // a1 & b0
    } else {
        cross1 = cross_term_recv(t, recv_ext, out.b);   // a0 & b1 (we choose with b1)
        cross2 = cross_term_send(t, send_ext, out.a);   // a1 & b0
    }
    for (std::size_t j = 0; j < n; ++j)
        out.c[j] = static_cast<std::uint8_t>((out.a[j] & out.b[j]) ^ cross1[j] ^ cross2[j]);
    return out;
}

}  // namespace c2pi::crypto
