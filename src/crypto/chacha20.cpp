#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "he/kernels.hpp"

namespace c2pi::crypto {

ChaCha20Prg::ChaCha20Prg(const Block128& seed, std::uint64_t nonce) {
    std::uint8_t key[32];
    seed.to_bytes(key);
    seed.to_bytes(key + 16);
    *this = ChaCha20Prg(std::span<const std::uint8_t>(key, 32), nonce);
}

ChaCha20Prg::ChaCha20Prg(std::span<const std::uint8_t> key32, std::uint64_t nonce) {
    require(key32.size() == 32, "ChaCha20 key must be 32 bytes");
    // "expand 32-byte k" constants.
    state_[0] = 0x61707865;
    state_[1] = 0x3320646E;
    state_[2] = 0x79622D32;
    state_[3] = 0x6B206574;
    std::memcpy(&state_[4], key32.data(), 32);
    state_[12] = 0;  // block counter
    state_[13] = static_cast<std::uint32_t>(nonce);
    state_[14] = static_cast<std::uint32_t>(nonce >> 32);
    state_[15] = 0;
}

void ChaCha20Prg::generate(std::uint8_t* dst, std::size_t nblocks) {
    // The block function (RFC 8439) lives in the SIMD kernel layer so
    // long streams run 8 blocks wide; state_[12]/state_[13] act as one
    // 64-bit little-endian counter, exactly as the former single-block
    // refill incremented it.
    he::kernels::active().chacha20_blocks(state_, dst, nblocks);
    std::uint64_t counter = static_cast<std::uint64_t>(state_[12]) |
                            (static_cast<std::uint64_t>(state_[13]) << 32);
    counter += nblocks;
    state_[12] = static_cast<std::uint32_t>(counter);
    state_[13] = static_cast<std::uint32_t>(counter >> 32);
}

void ChaCha20Prg::refill() {
    generate(buffer_, kRefillBlocks);
    buffer_pos_ = 0;
}

void ChaCha20Prg::fill_bytes(std::span<std::uint8_t> out) {
    std::size_t off = 0;
    while (off < out.size()) {
        if (buffer_pos_ == sizeof(buffer_)) {
            // Whole blocks go straight to the destination, bypassing the
            // buffer (same keystream bytes, no copy).
            const std::size_t whole = (out.size() - off) / 64;
            if (whole > 0) {
                generate(out.data() + off, whole);
                off += whole * 64;
                if (off == out.size()) return;
            }
            refill();
        }
        const std::size_t take = std::min(sizeof(buffer_) - buffer_pos_, out.size() - off);
        std::memcpy(out.data() + off, buffer_ + buffer_pos_, take);
        buffer_pos_ += take;
        off += take;
    }
}

std::uint64_t ChaCha20Prg::next_u64() {
    std::uint8_t raw[8];
    fill_bytes(raw);
    std::uint64_t v;
    std::memcpy(&v, raw, 8);
    return v;
}

Block128 ChaCha20Prg::next_block() {
    std::uint8_t raw[16];
    fill_bytes(raw);
    return Block128::from_bytes(raw);
}

std::vector<std::uint8_t> ChaCha20Prg::next_bits(std::size_t n) {
    std::vector<std::uint8_t> packed((n + 7) / 8);
    fill_bytes(packed);
    std::vector<std::uint8_t> bits(n);
    for (std::size_t i = 0; i < n; ++i) bits[i] = (packed[i / 8] >> (i % 8)) & 1U;
    return bits;
}

}  // namespace c2pi::crypto
