#include "fss/compare.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "crypto/chacha20.hpp"
#include "fss/key_pool.hpp"
#include "net/transport.hpp"

namespace c2pi::fss {

namespace {

using crypto::Block128;

constexpr Ring kHalfRing = Ring{1} << 63;

// Record layout (compare.hpp).
constexpr std::size_t kKeyAOffset = 24;
constexpr std::size_t kKeyBOffset = kKeyAOffset + kDcfKeyBytes;

/// Comparisons per unit of work. Small enough that a chunk's records
/// (both parties' when dealing: 2 x 64 x 4 KiB) stay in L2 across the 64
/// levels that revisit them, large enough to amortize the per-level
/// kernel call and a thread-pool claim.
constexpr std::size_t kChunk = 64;

/// The dealer's randomness for one comparison, in draw order: r, K_a's
/// two roots, K_b's two roots, party 0's shares of r, wrap and wrap * r.
constexpr std::size_t kDrawBytes = 8 + 4 * 16 + 3 * 8;

void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t get_u64(const std::uint8_t* in) {
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}

/// fn(first, count) over [0, n) in kChunk pieces spread over `threads`.
template <typename Fn>
void for_each_chunk(const core::ThreadPool* threads, std::size_t n, const Fn& fn) {
    const auto chunks = static_cast<std::int64_t>((n + kChunk - 1) / kChunk);
    core::parallel_for(threads, 0, chunks, [&](std::int64_t c) {
        const std::size_t first = static_cast<std::size_t>(c) * kChunk;
        fn(first, std::min(kChunk, n - first));
    });
}

}  // namespace

ReluMaterial deal_relu_material(crypto::ChaCha20Prg& prg, std::size_t count,
                                const core::ThreadPool* threads) {
    std::vector<std::uint8_t> draws(count * kDrawBytes);
    prg.fill_bytes(draws);
    ReluMaterial out{RecordBuffer(count * kReluKeyBytes), RecordBuffer(count * kReluKeyBytes)};

    for_each_chunk(threads, count, [&](std::size_t first, std::size_t m) {
        std::vector<DcfGenJob> jobs(2 * m);
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint8_t* d = draws.data() + (first + k) * kDrawBytes;
            std::uint8_t* rec0 = out.server.data() + (first + k) * kReluKeyBytes;
            std::uint8_t* rec1 = out.client.data() + (first + k) * kReluKeyBytes;
            const Ring r = get_u64(d);
            // Interval containment: 1{(z-r) mod 2^64 in [0, 2^63)} equals
            // DCF_{r+2^63}(z) - DCF_r(z) + wrap, case-checked for both wrap
            // values; the payload's second lane carries the same identity
            // multiplied by r.
            const DcfPayload beta{1, r};
            jobs[2 * k] = {.alpha = r,
                           .beta = beta,
                           .root = {Block128::from_bytes(d + 8), Block128::from_bytes(d + 24)},
                           .key = {rec0 + kKeyAOffset, rec1 + kKeyAOffset}};
            jobs[2 * k + 1] = {.alpha = r + kHalfRing,
                               .beta = beta,
                               .root = {Block128::from_bytes(d + 40), Block128::from_bytes(d + 56)},
                               .key = {rec0 + kKeyBOffset, rec1 + kKeyBOffset}};

            const bool wrap = r >= kHalfRing;
            const Ring whole[3] = {r, wrap ? Ring{1} : Ring{0}, wrap ? r : Ring{0}};
            for (std::size_t w = 0; w < 3; ++w) {
                const Ring share0 = get_u64(d + 72 + 8 * w);
                put_u64(rec0 + 8 * w, share0);
                put_u64(rec1 + 8 * w, whole[w] - share0);
            }
        }
        dcf_gen_batch(jobs);
    });
    return out;
}

Ring relu_mask_share(std::span<const std::uint8_t> records, std::size_t k) {
    return get_u64(records.data() + k * kReluKeyBytes);
}

std::vector<Ring> eval_relu_batch(std::span<const std::uint8_t> records, int party,
                                  std::span<const Ring> z, const core::ThreadPool* threads) {
    require(records.size() == z.size() * kReluKeyBytes,
            "fss eval: one key record per masked value");
    std::vector<Ring> out(z.size());
    for_each_chunk(threads, z.size(), [&](std::size_t first, std::size_t m) {
        std::vector<DcfEvalJob> jobs(2 * m);
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint8_t* rec = records.data() + (first + k) * kReluKeyBytes;
            jobs[2 * k] = {rec + kKeyAOffset, z[first + k]};
            jobs[2 * k + 1] = {rec + kKeyBOffset, z[first + k]};
        }
        std::vector<DcfPayload> d(2 * m);
        dcf_eval_batch(party, jobs, d);
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint8_t* rec = records.data() + (first + k) * kReluKeyBytes;
            const DcfPayload diff = d[2 * k + 1] - d[2 * k];
            const Ring u = diff.u + get_u64(rec + 8);   // share of the drelu bit 1{y >= 0}
            const Ring v = diff.v + get_u64(rec + 16);  // share of drelu * r
            out[first + k] = z[first + k] * u - v;      // shares of drelu * (z - r) = ReLU(y)
        }
    });
    return out;
}

// ---------------------------------------------------------------- shipment ---

void dealer_replenish(net::Transport& transport, crypto::ChaCha20Prg& prg, KeyPool& pool,
                      std::size_t count, const core::ThreadPool* threads) {
    if (count == 0) return;
    ReluMaterial material = deal_relu_material(prg, count, threads);
    transport.send_keys_bytes(material.client);
    pool.push(std::move(material.server));
}

void client_replenish(net::Transport& transport, KeyPool& pool, std::size_t count) {
    if (count == 0) return;
    std::vector<std::uint8_t> records = transport.recv_keys_bytes();
    require(records.size() % kReluKeyBytes == 0,
            "fss key batch: payload is not a whole number of key records");
    require(records.size() / kReluKeyBytes == count,
            "fss key batch: shipped key count does not match the plan-derived schedule");
    pool.push(std::move(records));
}

}  // namespace c2pi::fss
