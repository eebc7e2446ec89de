#include "crypto/ot.hpp"

#include "crypto/hash.hpp"

namespace c2pi::crypto {

namespace {

/// Expand one base-OT key into a row of the IKNP matrix (packed bits).
std::vector<std::uint8_t> expand_row(const Block128& key, std::uint64_t round, std::size_t nbytes) {
    ChaCha20Prg prg(key, /*nonce=*/round + 1);
    std::vector<std::uint8_t> row(nbytes);
    prg.fill_bytes(row);
    return row;
}

/// Extract column j of a 128-row packed bit matrix as a block.
Block128 column_block(const std::vector<std::vector<std::uint8_t>>& rows, std::size_t j) {
    Block128 col{};
    const std::size_t byte = j / 8;
    const unsigned shift = static_cast<unsigned>(j % 8);
    for (std::size_t i = 0; i < 64; ++i)
        col.lo |= static_cast<std::uint64_t>((rows[i][byte] >> shift) & 1U) << i;
    for (std::size_t i = 0; i < 64; ++i)
        col.hi |= static_cast<std::uint64_t>((rows[64 + i][byte] >> shift) & 1U) << i;
    return col;
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

RotReceiverOutput IknpReceiver::extend(net::Transport& t, std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;

    std::vector<std::uint8_t> r_packed(nbytes, 0);
    for (std::size_t j = 0; j < n; ++j)
        if (choices[j]) r_packed[j / 8] |= static_cast<std::uint8_t>(1U << (j % 8));

    std::vector<std::vector<std::uint8_t>> t_rows(kOtSecurityParam);
    std::vector<std::uint8_t> u_flat(kOtSecurityParam * nbytes);
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        t_rows[i] = expand_row(setup_.keys0[i], round_, nbytes);
        const auto v_row = expand_row(setup_.keys1[i], round_, nbytes);
        for (std::size_t b = 0; b < nbytes; ++b)
            u_flat[i * nbytes + b] = t_rows[i][b] ^ v_row[b] ^ r_packed[b];
    }
    t.send_bytes(u_flat);

    RotReceiverOutput out;
    out.m.resize(n);
    for (std::size_t j = 0; j < n; ++j) out.m[j] = cr_hash(tweak_ + j, column_block(t_rows, j));
    ++round_;
    tweak_ += n;
    return out;
}

RotSenderOutput IknpSender::extend(net::Transport& t, std::size_t n) {
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;
    const auto u_flat = t.recv_bytes();
    require(u_flat.size() == kOtSecurityParam * nbytes, "IKNP u-matrix size mismatch");

    std::vector<std::vector<std::uint8_t>> q_rows(kOtSecurityParam);
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        q_rows[i] = expand_row(setup_.keys[i], round_, nbytes);
        if (setup_.s[i]) {
            for (std::size_t b = 0; b < nbytes; ++b) q_rows[i][b] ^= u_flat[i * nbytes + b];
        }
    }
    Block128 s_block{};
    for (std::size_t i = 0; i < 64; ++i)
        s_block.lo |= static_cast<std::uint64_t>(setup_.s[i]) << i;
    for (std::size_t i = 0; i < 64; ++i)
        s_block.hi |= static_cast<std::uint64_t>(setup_.s[64 + i]) << i;

    RotSenderOutput out;
    out.m0.resize(n);
    out.m1.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        const Block128 q = column_block(q_rows, j);
        out.m0[j] = cr_hash(tweak_ + j, q);
        out.m1[j] = cr_hash(tweak_ + j, q ^ s_block);
    }
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
    const auto rot = ext.extend(t, n);
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
    const auto rot = ext.extend(t, choices);
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

    std::vector<std::uint8_t> payload(n_groups * n_options);
    for (std::size_t g = 0; g < n_groups; ++g) {
        for (std::size_t j = 0; j < n_options; ++j) {
            std::uint8_t pad = 0;
            for (std::size_t i = 0; i < log_n; ++i) {
                const bool bit = ((j >> i) & 1U) != 0;
                const Block128& key = bit ? rot.m1[g * log_n + i] : rot.m0[g * log_n + i];
                pad ^= static_cast<std::uint8_t>(cr_hash_u64(j * log_n + i, key));
            }
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

    std::vector<std::uint8_t> out(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
        const std::size_t j = indices[g];
        std::uint8_t pad = 0;
        for (std::size_t i = 0; i < log_n; ++i)
            pad ^= static_cast<std::uint8_t>(cr_hash_u64(j * log_n + i, rot.m[g * log_n + i]));
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
    const auto rot = ext.extend(t, n);
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
    const auto rot = ext.extend(t, b);
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
