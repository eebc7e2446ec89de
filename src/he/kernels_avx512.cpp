// AVX-512 kernel variant: 8 x u64 lanes. Compared to the AVX2 tier this
// gets native 64-bit low multiplies (DQ), mask-register compares instead
// of blendv sequences, and vpermt2q two-source shuffles that make the
// NTT's t = 4/2/1 tail stages single-permute. The high multiply is still
// emulated from 32-bit partial products (no unsigned 64x64 mulhi before
// AVX-512IFMA, and IFMA's 52-bit limbs would change the lazy-reduction
// intermediate values — bit-compatibility across tiers forbids that).
//
// Single-key ChaCha20 reuses the 8-block AVX2 path: the batch is 8
// blocks either way and the function is memory-bound at that width.
// Multi-key ChaCha20 (the DCF tree levels) runs a 16-lane body: it is
// compute-bound, and native rotates plus 16 lanes make it faster.
//
// This TU (alone) is compiled with -mavx512{f,dq,bw,vl}; dispatch
// guarantees the entry points only run after a cpuid check.

#include "he/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "he/modmath.hpp"

namespace c2pi::he::kernels {

namespace detail {
void chacha20_blocks_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          std::size_t nblocks);
void chacha20_multikey_avx2(const std::uint8_t* seeds, std::size_t n, std::uint64_t nonce,
                            std::uint8_t* out);
}  // namespace detail

namespace {

using V = __m512i;

inline V load(const u64* p) { return _mm512_loadu_si512(p); }
inline void store(u64* p, V x) { _mm512_storeu_si512(p, x); }
inline V bcast(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

/// a >= bound ? a - bound : a (unsigned lanes).
inline V csub_u64(V a, V bound) {
    const __mmask8 ge = _mm512_cmpge_epu64_mask(a, bound);
    return _mm512_mask_sub_epi64(a, ge, a, bound);
}

inline V add_mod_v(V a, V b, V p) { return csub_u64(_mm512_add_epi64(a, b), p); }

inline V sub_mod_v(V a, V b, V p) {
    const __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
    const V diff = _mm512_sub_epi64(a, b);
    return _mm512_mask_add_epi64(diff, lt, diff, p);
}

const V kLo32 = _mm512_set1_epi64(0xFFFFFFFFLL);

/// High 64 bits of a * b (schoolbook over 32-bit halves).
inline V mulhi_u64(V a, V b) {
    const V a_hi = _mm512_srli_epi64(a, 32);
    const V b_hi = _mm512_srli_epi64(b, 32);
    const V ll = _mm512_mul_epu32(a, b);
    const V lh = _mm512_mul_epu32(a, b_hi);
    const V hl = _mm512_mul_epu32(a_hi, b);
    const V hh = _mm512_mul_epu32(a_hi, b_hi);
    const V cross = _mm512_add_epi64(_mm512_and_si512(lh, kLo32), _mm512_and_si512(hl, kLo32));
    const V carry = _mm512_srli_epi64(_mm512_add_epi64(_mm512_srli_epi64(ll, 32), cross), 32);
    return _mm512_add_epi64(_mm512_add_epi64(hh, carry),
                            _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                                             _mm512_srli_epi64(hl, 32)));
}

/// Lazy Shoup product in [0, 2p).
inline V mul_shoup_lazy_v(V a, V w, V w_shoup, V p) {
    const V q = mulhi_u64(a, w_shoup);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, w), _mm512_mullo_epi64(q, p));
}

/// Exact Shoup product in [0, p).
inline V mul_shoup_v(V a, V w, V w_shoup, V p) {
    return csub_u64(mul_shoup_lazy_v(a, w, w_shoup, p), p);
}

/// a mod p for arbitrary a.
inline V reduce_mod_v(V a, V one_shoup, V p) {
    const V q = mulhi_u64(a, one_shoup);
    return csub_u64(_mm512_sub_epi64(a, _mm512_mullo_epi64(q, p)), p);
}

// ------------------------------------------------------------------- NTT ---

inline void fwd_butterfly(V& u, V& x, V s, V s_shoup, V p, V two_p) {
    u = csub_u64(u, two_p);
    const V v = mul_shoup_lazy_v(x, s, s_shoup, p);
    x = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
    u = _mm512_add_epi64(u, v);
}

inline void inv_butterfly(V& u, V& v, V s, V s_shoup, V p, V two_p) {
    const V diff = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
    u = csub_u64(_mm512_add_epi64(u, v), two_p);
    v = mul_shoup_lazy_v(diff, s, s_shoup, p);
}

// Two-source deinterleave/interleave indices for the t = 4/2/1 stages
// (vpermt2q: entries 0..7 select from the first source, 8..15 from the
// second). Deinterleaving with these preserves block order, so the
// u-lanes line up with contiguous twiddle loads.
const V kIdxA4 = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
const V kIdxB4 = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
const V kIdxA2 = _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0);
const V kIdxB2 = _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2);
const V kIdxA1 = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
const V kIdxB1 = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
const V kIdxL2 = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
const V kIdxH2 = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
const V kIdxL1 = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
const V kIdxH1 = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
// Twiddle spread: replicate each of the first k loaded twiddles 8/k times.
const V kTw4 = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
const V kTw2 = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);

void ntt_forward_avx512(u64* a, std::size_t n, const u64* psi_rev,
                        const u64* psi_rev_shoup, u64 p) {
    if (n < 16) {
        scalar_kernels()->ntt_forward(a, n, psi_rev, psi_rev_shoup, p);
        return;
    }
    const V vp = bcast(p);
    const V v2p = bcast(2 * p);

    std::size_t m = 1;
    std::size_t t = n >> 1;
    for (; t >= 8; m <<= 1, t >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const V s = bcast(psi_rev[m + i]);
            const V ss = bcast(psi_rev_shoup[m + i]);
            for (std::size_t j = j1; j < j1 + t; j += 8) {
                V u = load(a + j);
                V x = load(a + j + t);
                fwd_butterfly(u, x, s, ss, vp, v2p);
                store(a + j, u);
                store(a + j + t, x);
            }
        }
    }

    // t == 4 (m = n/8): two blocks [u0..u3 v0..v3] per pass.
    for (std::size_t i = 0; i < m; i += 2) {
        const std::size_t j = 8 * i;
        const V x0 = load(a + j);
        const V x1 = load(a + j + 8);
        V u = _mm512_permutex2var_epi64(x0, kIdxA4, x1);
        V x = _mm512_permutex2var_epi64(x0, kIdxB4, x1);
        const V s = _mm512_permutexvar_epi64(kTw4, load(psi_rev + m + i));
        const V ss = _mm512_permutexvar_epi64(kTw4, load(psi_rev_shoup + m + i));
        fwd_butterfly(u, x, s, ss, vp, v2p);
        store(a + j, _mm512_permutex2var_epi64(u, kIdxA4, x));
        store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxB4, x));
    }
    m <<= 1;

    // t == 2 (m = n/4): four blocks [u0 u1 v0 v1] per pass.
    for (std::size_t i = 0; i < m; i += 4) {
        const std::size_t j = 4 * i;
        const V x0 = load(a + j);
        const V x1 = load(a + j + 8);
        V u = _mm512_permutex2var_epi64(x0, kIdxA2, x1);
        V x = _mm512_permutex2var_epi64(x0, kIdxB2, x1);
        const V s = _mm512_permutexvar_epi64(kTw2, load(psi_rev + m + i));
        const V ss = _mm512_permutexvar_epi64(kTw2, load(psi_rev_shoup + m + i));
        fwd_butterfly(u, x, s, ss, vp, v2p);
        store(a + j, _mm512_permutex2var_epi64(u, kIdxL2, x));
        store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxH2, x));
    }
    m <<= 1;

    // t == 1 (m = n/2): eight adjacent pairs per pass; the deinterleave
    // keeps pair order, so the twiddle vector is a plain contiguous load.
    for (std::size_t i = 0; i < m; i += 8) {
        const std::size_t j = 2 * i;
        const V x0 = load(a + j);
        const V x1 = load(a + j + 8);
        V u = _mm512_permutex2var_epi64(x0, kIdxA1, x1);
        V x = _mm512_permutex2var_epi64(x0, kIdxB1, x1);
        const V s = load(psi_rev + m + i);
        const V ss = load(psi_rev_shoup + m + i);
        fwd_butterfly(u, x, s, ss, vp, v2p);
        store(a + j, _mm512_permutex2var_epi64(u, kIdxL1, x));
        store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxH1, x));
    }

    for (std::size_t j = 0; j < n; j += 8)
        store(a + j, csub_u64(csub_u64(load(a + j), v2p), vp));
}

void ntt_inverse_avx512(u64* a, std::size_t n, const u64* ipsi_rev,
                        const u64* ipsi_rev_shoup, u64 n_inv, u64 n_inv_shoup,
                        u64 p) {
    if (n < 16) {
        scalar_kernels()->ntt_inverse(a, n, ipsi_rev, ipsi_rev_shoup, n_inv, n_inv_shoup, p);
        return;
    }
    const V vp = bcast(p);
    const V v2p = bcast(2 * p);

    // t == 1 (h = n/2).
    {
        const std::size_t h = n >> 1;
        for (std::size_t i = 0; i < h; i += 8) {
            const std::size_t j = 2 * i;
            const V x0 = load(a + j);
            const V x1 = load(a + j + 8);
            V u = _mm512_permutex2var_epi64(x0, kIdxA1, x1);
            V v = _mm512_permutex2var_epi64(x0, kIdxB1, x1);
            const V s = load(ipsi_rev + h + i);
            const V ss = load(ipsi_rev_shoup + h + i);
            inv_butterfly(u, v, s, ss, vp, v2p);
            store(a + j, _mm512_permutex2var_epi64(u, kIdxL1, v));
            store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxH1, v));
        }
    }

    // t == 2 (h = n/4).
    {
        const std::size_t h = n >> 2;
        for (std::size_t i = 0; i < h; i += 4) {
            const std::size_t j = 4 * i;
            const V x0 = load(a + j);
            const V x1 = load(a + j + 8);
            V u = _mm512_permutex2var_epi64(x0, kIdxA2, x1);
            V v = _mm512_permutex2var_epi64(x0, kIdxB2, x1);
            const V s = _mm512_permutexvar_epi64(kTw2, load(ipsi_rev + h + i));
            const V ss = _mm512_permutexvar_epi64(kTw2, load(ipsi_rev_shoup + h + i));
            inv_butterfly(u, v, s, ss, vp, v2p);
            store(a + j, _mm512_permutex2var_epi64(u, kIdxL2, v));
            store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxH2, v));
        }
    }

    // t == 4 (h = n/8).
    {
        const std::size_t h = n >> 3;
        for (std::size_t i = 0; i < h; i += 2) {
            const std::size_t j = 8 * i;
            const V x0 = load(a + j);
            const V x1 = load(a + j + 8);
            V u = _mm512_permutex2var_epi64(x0, kIdxA4, x1);
            V v = _mm512_permutex2var_epi64(x0, kIdxB4, x1);
            const V s = _mm512_permutexvar_epi64(kTw4, load(ipsi_rev + h + i));
            const V ss = _mm512_permutexvar_epi64(kTw4, load(ipsi_rev_shoup + h + i));
            inv_butterfly(u, v, s, ss, vp, v2p);
            store(a + j, _mm512_permutex2var_epi64(u, kIdxA4, v));
            store(a + j + 8, _mm512_permutex2var_epi64(u, kIdxB4, v));
        }
    }

    // t >= 8: broadcast twiddle per run.
    for (std::size_t t = 8, h = n >> 4; h >= 1; t <<= 1, h >>= 1) {
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            const V s = bcast(ipsi_rev[h + i]);
            const V ss = bcast(ipsi_rev_shoup[h + i]);
            for (std::size_t j = j1; j < j1 + t; j += 8) {
                V u = load(a + j);
                V v = load(a + j + t);
                inv_butterfly(u, v, s, ss, vp, v2p);
                store(a + j, u);
                store(a + j + t, v);
            }
            j1 += 2 * t;
        }
    }

    const V s = bcast(n_inv);
    const V ss = bcast(n_inv_shoup);
    for (std::size_t j = 0; j < n; j += 8)
        store(a + j, csub_u64(mul_shoup_lazy_v(load(a + j), s, ss, vp), vp));
}

// ----------------------------------------------------- element-wise loops ---

void mul_shoup_avx512(u64* dst, const u64* a, const u64* w, const u64* w_shoup,
                      std::size_t n, u64 p) {
    const V vp = bcast(p);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        store(dst + j, mul_shoup_v(load(a + j), load(w + j), load(w_shoup + j), vp));
    for (; j < n; ++j) dst[j] = mul_mod_shoup(a[j], w[j], w_shoup[j], p);
}

void mul_shoup_accumulate_avx512(u64* acc, const u64* a, const u64* w,
                                 const u64* w_shoup, std::size_t n, u64 p) {
    const V vp = bcast(p);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const V prod = mul_shoup_v(load(a + j), load(w + j), load(w_shoup + j), vp);
        store(acc + j, add_mod_v(load(acc + j), prod, vp));
    }
    for (; j < n; ++j)
        acc[j] = add_mod(acc[j], mul_mod_shoup(a[j], w[j], w_shoup[j], p), p);
}

void fold_delta_avx512(u64* c0, const u64* plain, std::size_t n, u64 p,
                       u64 one_shoup, u64 delta, u64 delta_shoup) {
    const V vp = bcast(p);
    const V vone = bcast(one_shoup);
    const V vd = bcast(delta);
    const V vds = bcast(delta_shoup);
    const V zero = _mm512_setzero_si512();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const V v = load(plain + j);
        const __mmask8 neg = _mm512_cmplt_epi64_mask(v, zero);  // signed v < 0
        const V mag = _mm512_mask_sub_epi64(v, neg, zero, v);
        const V red = reduce_mod_v(mag, vone, vp);
        // negative lanes lift to p - red, except red == 0 stays 0
        V m = _mm512_mask_sub_epi64(red, neg, vp, red);
        const __mmask8 kill = neg & _mm512_cmpeq_epi64_mask(red, zero);
        m = _mm512_maskz_mov_epi64(static_cast<__mmask8>(~kill), m);
        const V term = mul_shoup_v(m, vd, vds, vp);
        store(c0 + j, add_mod_v(load(c0 + j), term, vp));
    }
    for (; j < n; ++j) {
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

void mod_switch_4to2_avx512(u64* l0, u64* l1, const u64* l2, const u64* l3,
                            std::size_t n, const ModSwitchConsts& k) {
    const V vq3 = bcast(k.q3);
    const V vq4 = bcast(k.q4);
    const V vone_q4 = bcast(k.one_shoup_q4);
    const V vq3i = bcast(k.q3_inv);
    const V vq3is = bcast(k.q3_inv_shoup);
    const V vone1 = _mm512_set1_epi64(1);
    V vpk[2], vonek[2], vr64[2], vr64s[2], vdrop[2], vdrops[2];
    for (int i = 0; i < 2; ++i) {
        vpk[i] = bcast(k.p[i]);
        vonek[i] = bcast(k.one_shoup[i]);
        vr64[i] = bcast(k.r64[i]);
        vr64s[i] = bcast(k.r64_shoup[i]);
        vdrop[i] = bcast(k.drop_inv[i]);
        vdrops[i] = bcast(k.drop_inv_shoup[i]);
    }
    u64* dst[2] = {l0, l1};
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const V c3 = load(l2 + j);
        const V c4 = load(l3 + j);
        const V d = sub_mod_v(reduce_mod_v(c4, vone_q4, vq4),
                              reduce_mod_v(c3, vone_q4, vq4), vq4);
        const V w = mul_shoup_v(d, vq3i, vq3is, vq4);
        // 128-bit v = c3 + q3 * w, split into (hi, lo) with carry.
        const V prod_lo = _mm512_mullo_epi64(vq3, w);
        const V lo = _mm512_add_epi64(prod_lo, c3);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(lo, prod_lo);
        const V prod_hi = mulhi_u64(vq3, w);
        const V hi = _mm512_mask_add_epi64(prod_hi, carry, prod_hi, vone1);
        for (int i = 0; i < 2; ++i) {
            const V v_mod = add_mod_v(mul_shoup_v(hi, vr64[i], vr64s[i], vpk[i]),
                                      reduce_mod_v(lo, vonek[i], vpk[i]), vpk[i]);
            const V cur = load(dst[i] + j);
            store(dst[i] + j,
                  mul_shoup_v(sub_mod_v(cur, v_mod, vpk[i]), vdrop[i], vdrops[i], vpk[i]));
        }
    }
    if (j < n)
        scalar_kernels()->mod_switch_4to2(l0 + j, l1 + j, l2 + j, l3 + j, n - j, k);
}

// -------------------------------------------------------------- ChaCha20 ---

using Z = __m512i;  // 16 x u32 lanes = 16 blocks, one state word per register

inline void quarter_round_z(Z& a, Z& b, Z& c, Z& d) {
    a = _mm512_add_epi32(a, b);
    d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
    c = _mm512_add_epi32(c, d);
    b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
    a = _mm512_add_epi32(a, b);
    d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
    c = _mm512_add_epi32(c, d);
    b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

/// 4x4 u32 transpose inside each 128-bit lane: afterwards element e of
/// lane k in r[i] is element i of lane k in the input r[e].
inline void transpose_4x4_in_lanes(Z r[4]) {
    const Z t0 = _mm512_unpacklo_epi32(r[0], r[1]);
    const Z t1 = _mm512_unpackhi_epi32(r[0], r[1]);
    const Z t2 = _mm512_unpacklo_epi32(r[2], r[3]);
    const Z t3 = _mm512_unpackhi_epi32(r[2], r[3]);
    r[0] = _mm512_unpacklo_epi64(t0, t2);
    r[1] = _mm512_unpackhi_epi64(t0, t2);
    r[2] = _mm512_unpacklo_epi64(t1, t3);
    r[3] = _mm512_unpackhi_epi64(t1, t3);
}

/// Block 0 under 16 keys seed_i || seed_i (seeds: 16 x 16 bytes). The
/// 16-lane body wins over the shared 8-lane AVX2 one through native
/// rotates and twice the lanes per round.
void chacha20_16keys(const std::uint8_t* seeds, std::uint64_t nonce, std::uint8_t* out) {
    // Lane k of load j is seed 4j + k; the in-lane transpose leaves key
    // word w of every seed in key[w], seed 4e + k at u32 position 4k + e.
    // Blocks are independent, so that order is undone only when storing.
    Z key[4];
    for (int j = 0; j < 4; ++j) key[j] = _mm512_loadu_si512(seeds + 64 * j);
    transpose_4x4_in_lanes(key);
    Z init[16];
    init[0] = _mm512_set1_epi32(0x61707865);
    init[1] = _mm512_set1_epi32(0x3320646E);
    init[2] = _mm512_set1_epi32(0x79622D32);
    init[3] = _mm512_set1_epi32(0x6B206574);
    for (int w = 0; w < 4; ++w) init[4 + w] = init[8 + w] = key[w];
    init[12] = _mm512_setzero_si512();
    init[13] = _mm512_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(nonce)));
    init[14] = _mm512_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(nonce >> 32)));
    init[15] = _mm512_setzero_si512();

    Z x[16];
    for (int i = 0; i < 16; ++i) x[i] = init[i];
    for (int round = 0; round < 10; ++round) {
        quarter_round_z(x[0], x[4], x[8], x[12]);
        quarter_round_z(x[1], x[5], x[9], x[13]);
        quarter_round_z(x[2], x[6], x[10], x[14]);
        quarter_round_z(x[3], x[7], x[11], x[15]);
        quarter_round_z(x[0], x[5], x[10], x[15]);
        quarter_round_z(x[1], x[6], x[11], x[12]);
        quarter_round_z(x[2], x[7], x[8], x[13]);
        quarter_round_z(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm512_add_epi32(x[i], init[i]);

    // After the in-lane transpose of words 4g..4g+3, lane k of x[4g + e]
    // holds bytes 16g..16g+15 of seed 4e + k's block; a 128-bit 4x4
    // transpose across g then assembles whole blocks.
    for (int g = 0; g < 4; ++g) transpose_4x4_in_lanes(x + 4 * g);
    for (int e = 0; e < 4; ++e) {
        const Z u0 = _mm512_shuffle_i32x4(x[e], x[4 + e], 0x44);
        const Z u1 = _mm512_shuffle_i32x4(x[e], x[4 + e], 0xEE);
        const Z u2 = _mm512_shuffle_i32x4(x[8 + e], x[12 + e], 0x44);
        const Z u3 = _mm512_shuffle_i32x4(x[8 + e], x[12 + e], 0xEE);
        std::uint8_t* dst = out + 4 * 64 * e;
        _mm512_storeu_si512(dst, _mm512_shuffle_i32x4(u0, u2, 0x88));
        _mm512_storeu_si512(dst + 64, _mm512_shuffle_i32x4(u0, u2, 0xDD));
        _mm512_storeu_si512(dst + 128, _mm512_shuffle_i32x4(u1, u3, 0x88));
        _mm512_storeu_si512(dst + 192, _mm512_shuffle_i32x4(u1, u3, 0xDD));
    }
}

void chacha20_multikey_avx512(const std::uint8_t* seeds, std::size_t n, std::uint64_t nonce,
                              std::uint8_t* out) {
    for (; n >= 16; n -= 16, seeds += 16 * 16, out += 16 * 64) chacha20_16keys(seeds, nonce, out);
    if (n > 0) detail::chacha20_multikey_avx2(seeds, n, nonce, out);
}

}  // namespace

const Kernels* avx512_kernels() {
    static constexpr Kernels k{
        .tier = Tier::kAvx512,
        .name = "avx512",
        .ntt_forward = &ntt_forward_avx512,
        .ntt_inverse = &ntt_inverse_avx512,
        .mul_shoup = &mul_shoup_avx512,
        .mul_shoup_accumulate = &mul_shoup_accumulate_avx512,
        .fold_delta = &fold_delta_avx512,
        .mod_switch_4to2 = &mod_switch_4to2_avx512,
        .chacha20_blocks = &detail::chacha20_blocks_avx2,
        .chacha20_multikey = &chacha20_multikey_avx512,
    };
    return &k;
}

}  // namespace c2pi::he::kernels

#else  // !AVX-512

namespace c2pi::he::kernels {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace c2pi::he::kernels

#endif
