#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD kernels for the ring-arithmetic and PRG hot
/// loops: the NTT butterfly passes, the Shoup modular-multiply limb
/// loops behind multiply_plain(_accumulate), the add_plain delta fold,
/// the 4->2 mod-switch compose, and the batched ChaCha20 block function
/// (one key over consecutive counters, or block 0 of many keys).
///
/// Three variants exist — scalar, AVX2 and AVX-512 — compiled into
/// separate translation units (only the kernel TUs carry -m arch flags,
/// so the binary still runs on any x86-64). One variant is selected at
/// startup from a cpuid probe; `C2PI_KERNELS=scalar|avx2|avx512`
/// overrides the probe for testing and benchmarking. Every variant
/// computes the exact same sequence of lazy-reduction operations, so
/// outputs are bit-identical across tiers — pinned by the differential
/// suite in tests/kernels_test.cpp.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace c2pi::he::kernels {

using u64 = std::uint64_t;

enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Hoisted constants of BfvContext::mod_switch_to_two_limbs (4 -> 2
/// limbs): everything input-independent about the CRT compose of the
/// dropped (q3, q4) pair and the rescale of the kept (p[0], p[1]) pair.
struct ModSwitchConsts {
    u64 q3 = 0, q4 = 0;                 ///< dropped primes
    u64 one_shoup_q4 = 0;               ///< floor(2^64 / q4)
    u64 q3_inv = 0, q3_inv_shoup = 0;   ///< q3^{-1} mod q4 (+ companion)
    u64 p[2] = {};                      ///< kept primes
    u64 one_shoup[2] = {};              ///< floor(2^64 / p_i)
    u64 r64[2] = {}, r64_shoup[2] = {};           ///< 2^64 mod p_i
    u64 drop_inv[2] = {}, drop_inv_shoup[2] = {}; ///< (q3 q4)^{-1} mod p_i
};

/// One kernel variant: a table of function pointers, resolved once.
struct Kernels {
    Tier tier = Tier::kScalar;
    const char* name = "scalar";

    /// In-place forward negacyclic NTT (Longa-Naehrig order, Harvey lazy
    /// reduction; output exactly reduced to [0, p)). Precondition:
    /// a[j] < 4p, n a power of two >= 2.
    void (*ntt_forward)(u64* a, std::size_t n, const u64* psi_rev,
                        const u64* psi_rev_shoup, u64 p) = nullptr;
    /// In-place inverse counterpart (scales by n^{-1}, reduces to [0, p)).
    void (*ntt_inverse)(u64* a, std::size_t n, const u64* ipsi_rev,
                        const u64* ipsi_rev_shoup, u64 n_inv, u64 n_inv_shoup,
                        u64 p) = nullptr;
    /// dst[j] = a[j] * w[j] mod p (exact Shoup product; a[j] < p).
    void (*mul_shoup)(u64* dst, const u64* a, const u64* w, const u64* w_shoup,
                      std::size_t n, u64 p) = nullptr;
    /// acc[j] = (acc[j] + a[j] * w[j]) mod p.
    void (*mul_shoup_accumulate)(u64* acc, const u64* a, const u64* w,
                                 const u64* w_shoup, std::size_t n, u64 p) = nullptr;
    /// c0[j] = (c0[j] + lift_signed(plain[j]) * delta) mod p — the
    /// add_plain_inplace fold of a full mask polynomial into a response.
    void (*fold_delta)(u64* c0, const u64* plain, std::size_t n, u64 p,
                       u64 one_shoup, u64 delta, u64 delta_shoup) = nullptr;
    /// The per-coefficient 4->2 mod-switch: CRT-compose the dropped pair
    /// (l2, l3), subtract and rescale the kept pair (l0, l1) in place.
    void (*mod_switch_4to2)(u64* l0, u64* l1, const u64* l2, const u64* l3,
                            std::size_t n, const ModSwitchConsts& k) = nullptr;
    /// nblocks consecutive ChaCha20 keystream blocks (64 bytes each) into
    /// `out`, starting at the counter held in state[12]/state[13] (64-bit
    /// little-endian effective counter). `state` is not modified; the
    /// caller advances the counter by nblocks.
    void (*chacha20_blocks)(const std::uint32_t state[16], std::uint8_t* out,
                            std::size_t nblocks) = nullptr;
    /// Block 0 of ChaCha20 under n independent keys: out[64 i, 64 i + 64)
    /// = the first keystream block of key seed_i || seed_i, counter 0, the
    /// given 64-bit nonce — exactly the first 64 bytes of
    /// crypto::ChaCha20Prg(seed_i, nonce). `seeds` holds n 16-byte seeds
    /// back to back (Block128::to_bytes layout). This is the GGM node
    /// expansion of the FSS DCF trees, one tree level per call.
    void (*chacha20_multikey)(const std::uint8_t* seeds, std::size_t n, std::uint64_t nonce,
                              std::uint8_t* out) = nullptr;
};

/// The variant every hot loop uses: the best tier the CPU supports,
/// unless C2PI_KERNELS overrides. Resolved once on first call; an
/// override naming an unknown or unsupported tier throws c2pi::Error.
const Kernels& active();

/// All variants this process can run (scalar always; AVX2/AVX-512 when
/// both compiled in and reported by cpuid). The differential tests
/// iterate this list, so unsupported ISAs are skipped at runtime.
const std::vector<const Kernels*>& supported();

/// Variant by tier name ("scalar", "avx2", "avx512"); nullptr when the
/// name is unknown or the tier is unsupported on this CPU.
const Kernels* by_name(std::string_view name);

[[nodiscard]] bool cpu_supports(Tier tier);

/// Test-only hook: force the active variant (nullptr restores the
/// startup resolution). Swap only while no session threads are running.
void set_active_for_testing(const Kernels* k);

// Registration points, defined in the per-ISA TUs. A TU built without
// its ISA (non-x86 target, old compiler) returns nullptr.
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

}  // namespace c2pi::he::kernels
