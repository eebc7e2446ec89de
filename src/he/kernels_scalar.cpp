// Scalar kernel variant — the reference semantics every SIMD tier must
// reproduce bit-for-bit. The NTT bodies are the Harvey lazy-reduction
// passes that lived in he/ntt.cpp before the kernel split; the ChaCha20
// block is the RFC 8439 function that lived in crypto/chacha20.cpp.

#include <cstring>

#include "he/kernels.hpp"
#include "he/modmath.hpp"

namespace c2pi::he::kernels {

namespace {

void ntt_forward_scalar(u64* a, std::size_t n, const u64* psi_rev,
                        const u64* psi_rev_shoup, u64 p) {
    // Harvey-style lazy butterflies: values stay below 4p between stages
    // (fine for ~49-bit primes; 4p < 2^51), the twiddle product accepts
    // any operand < 2^64 and returns a value < 2p, and a single final
    // pass reduces to [0, p).
    const u64 two_p = 2 * p;
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const u64 s = psi_rev[m + i];
            const u64 s_shoup = psi_rev_shoup[m + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                u64 u = a[j];
                if (u >= two_p) u -= two_p;                               // < 2p
                const u64 v = mul_mod_shoup_lazy(a[j + t], s, s_shoup, p); // < 2p
                a[j] = u + v;                                             // < 4p
                a[j + t] = u + two_p - v;                                 // < 4p
            }
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        u64 x = a[j];
        if (x >= two_p) x -= two_p;
        if (x >= p) x -= p;
        a[j] = x;
    }
}

void ntt_inverse_scalar(u64* a, std::size_t n, const u64* ipsi_rev,
                        const u64* ipsi_rev_shoup, u64 n_inv, u64 n_inv_shoup,
                        u64 p) {
    // Gentleman-Sande stages with the same lazy discipline: sums are
    // conditionally reduced to < 2p, differences go through the lazy
    // twiddle product (< 2p), and the closing n^{-1} scaling performs the
    // single exact reduction to [0, p).
    const u64 two_p = 2 * p;
    std::size_t t = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
        std::size_t j1 = 0;
        const std::size_t h = m >> 1;
        for (std::size_t i = 0; i < h; ++i) {
            const u64 s = ipsi_rev[h + i];
            const u64 s_shoup = ipsi_rev_shoup[h + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = a[j + t];
                u64 sum = u + v;                                            // < 4p
                if (sum >= two_p) sum -= two_p;                             // < 2p
                a[j] = sum;
                a[j + t] = mul_mod_shoup_lazy(u + two_p - v, s, s_shoup, p); // < 2p
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::size_t j = 0; j < n; ++j) {
        u64 x = mul_mod_shoup_lazy(a[j], n_inv, n_inv_shoup, p);
        if (x >= p) x -= p;
        a[j] = x;
    }
}

void mul_shoup_scalar(u64* dst, const u64* a, const u64* w, const u64* w_shoup,
                      std::size_t n, u64 p) {
    for (std::size_t j = 0; j < n; ++j) dst[j] = mul_mod_shoup(a[j], w[j], w_shoup[j], p);
}

void mul_shoup_accumulate_scalar(u64* acc, const u64* a, const u64* w,
                                 const u64* w_shoup, std::size_t n, u64 p) {
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = add_mod(acc[j], mul_mod_shoup(a[j], w[j], w_shoup[j], p), p);
}

void fold_delta_scalar(u64* c0, const u64* plain, std::size_t n, u64 p,
                       u64 one_shoup, u64 delta, u64 delta_shoup) {
    for (std::size_t j = 0; j < n; ++j) {
        // Divisionless signed lift of the ring element into [0, p): the
        // magnitude of a negative value is computed in unsigned
        // arithmetic (negating INT64_MIN would be signed-overflow UB).
        const auto sv = static_cast<std::int64_t>(plain[j]);
        u64 m;
        if (sv >= 0) {
            m = reduce_mod_shoup(static_cast<u64>(sv), one_shoup, p);
        } else {
            const u64 mag = reduce_mod_shoup(u64{0} - plain[j], one_shoup, p);
            m = mag == 0 ? 0 : p - mag;
        }
        c0[j] = add_mod(c0[j], mul_mod_shoup(m, delta, delta_shoup, p), p);
    }
}

void mod_switch_4to2_scalar(u64* l0, u64* l1, const u64* l2, const u64* l3,
                            std::size_t n, const ModSwitchConsts& k) {
    for (std::size_t j = 0; j < n; ++j) {
        const u64 c3 = l2[j];
        const u64 c4 = l3[j];
        // CRT compose the dropped part: v = c3 + q3 * ((c4 - c3) q3^{-1} mod q4).
        const u64 w = mul_mod_shoup(sub_mod(reduce_mod_shoup(c4, k.one_shoup_q4, k.q4),
                                            reduce_mod_shoup(c3, k.one_shoup_q4, k.q4), k.q4),
                                    k.q3_inv, k.q3_inv_shoup, k.q4);
        const u128 v = static_cast<u128>(c3) + static_cast<u128>(k.q3) * w;
        // v mod p via the split v = hi·2^64 + lo (hi < 2^34), with
        // precomputed 2^64 mod p — no 128-bit division on this path.
        const u64 hi = static_cast<u64>(v >> 64);
        const u64 lo = static_cast<u64>(v);
        u64* dst[2] = {l0, l1};
        for (int i = 0; i < 2; ++i) {
            const u64 p = k.p[i];
            const u64 v_mod = add_mod(mul_mod_shoup(hi, k.r64[i], k.r64_shoup[i], p),
                                      reduce_mod_shoup(lo, k.one_shoup[i], p), p);
            dst[i][j] = mul_mod_shoup(sub_mod(dst[i][j], v_mod, p),
                                      k.drop_inv[i], k.drop_inv_shoup[i], p);
        }
    }
}

// ------------------------------------------------------------- ChaCha20 ---

inline std::uint32_t rotl32(std::uint32_t x, int r) { return (x << r) | (x >> (32 - r)); }

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
    a += b; d ^= a; d = rotl32(d, 16);
    c += d; b ^= c; b = rotl32(b, 12);
    a += b; d ^= a; d = rotl32(d, 8);
    c += d; b ^= c; b = rotl32(b, 7);
}

/// The RFC 8439 block function of one input state.
void chacha20_block(const std::uint32_t input[16], std::uint8_t out[64]) {
    std::uint32_t x[16];
    std::memcpy(x, input, sizeof(x));
    for (int round = 0; round < 10; ++round) {
        quarter_round(x[0], x[4], x[8], x[12]);
        quarter_round(x[1], x[5], x[9], x[13]);
        quarter_round(x[2], x[6], x[10], x[14]);
        quarter_round(x[3], x[7], x[11], x[15]);
        quarter_round(x[0], x[5], x[10], x[15]);
        quarter_round(x[1], x[6], x[11], x[12]);
        quarter_round(x[2], x[7], x[8], x[13]);
        quarter_round(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t v = x[i] + input[i];
        std::memcpy(out + 4 * i, &v, 4);
    }
}

void chacha20_blocks_scalar(const std::uint32_t state[16], std::uint8_t* out,
                            std::size_t nblocks) {
    std::uint64_t counter = static_cast<std::uint64_t>(state[12]) |
                            (static_cast<std::uint64_t>(state[13]) << 32);
    for (std::size_t b = 0; b < nblocks; ++b, ++counter, out += 64) {
        std::uint32_t input[16];
        std::memcpy(input, state, sizeof(input));
        input[12] = static_cast<std::uint32_t>(counter);
        input[13] = static_cast<std::uint32_t>(counter >> 32);
        chacha20_block(input, out);
    }
}

void chacha20_multikey_scalar(const std::uint8_t* seeds, std::size_t n, std::uint64_t nonce,
                              std::uint8_t* out) {
    std::uint32_t input[16] = {0x61707865, 0x3320646E, 0x79622D32, 0x6B206574};
    input[12] = 0;
    input[13] = static_cast<std::uint32_t>(nonce);
    input[14] = static_cast<std::uint32_t>(nonce >> 32);
    input[15] = 0;
    for (std::size_t i = 0; i < n; ++i, seeds += 16, out += 64) {
        std::memcpy(&input[4], seeds, 16);
        std::memcpy(&input[8], seeds, 16);
        chacha20_block(input, out);
    }
}

}  // namespace

const Kernels* scalar_kernels() {
    static constexpr Kernels k{
        .tier = Tier::kScalar,
        .name = "scalar",
        .ntt_forward = &ntt_forward_scalar,
        .ntt_inverse = &ntt_inverse_scalar,
        .mul_shoup = &mul_shoup_scalar,
        .mul_shoup_accumulate = &mul_shoup_accumulate_scalar,
        .fold_delta = &fold_delta_scalar,
        .mod_switch_4to2 = &mod_switch_4to2_scalar,
        .chacha20_blocks = &chacha20_blocks_scalar,
        .chacha20_multikey = &chacha20_multikey_scalar,
    };
    return &k;
}

}  // namespace c2pi::he::kernels
