#pragma once

/// \file chacha20.hpp
/// ChaCha20 (RFC 8439 block function) in counter mode, used as the
/// cryptographic PRG for OT extension, garbling randomness and share
/// sampling inside protocols. Deterministic given (key, nonce).

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/block.hpp"

namespace c2pi::crypto {

/// Stream generator over the ChaCha20 block function.
class ChaCha20Prg {
public:
    /// Key is 32 bytes; a Block128 seed is expanded to a key by repetition.
    explicit ChaCha20Prg(const Block128& seed, std::uint64_t nonce = 0);
    ChaCha20Prg(std::span<const std::uint8_t> key32, std::uint64_t nonce);

    void fill_bytes(std::span<std::uint8_t> out);
    [[nodiscard]] std::uint64_t next_u64();
    [[nodiscard]] Block128 next_block();
    /// n pseudo-random bits packed one per byte (0/1).
    [[nodiscard]] std::vector<std::uint8_t> next_bits(std::size_t n);

private:
    void generate(std::uint8_t* dst, std::size_t nblocks);
    void refill();

    std::uint32_t state_[16] = {};
    // Keystream cache, refilled 8 blocks at a time through the batched
    // (SIMD-dispatched) block kernel. The byte stream itself is pure
    // counter mode and identical regardless of batching.
    static constexpr std::size_t kRefillBlocks = 8;
    std::uint8_t buffer_[kRefillBlocks * 64] = {};
    std::size_t buffer_pos_ = sizeof(buffer_);  // == sizeof(buffer_): empty
};

}  // namespace c2pi::crypto
