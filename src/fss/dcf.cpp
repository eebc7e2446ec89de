#include "fss/dcf.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "he/kernels.hpp"

namespace c2pi::fss {

namespace {

using crypto::Block128;

// The kernel reads a Block128 array as its to_bytes layout.
static_assert(std::endian::native == std::endian::little);

constexpr std::size_t kSeedCwOffset = 16;
constexpr std::size_t kValueCwOffset = kSeedCwOffset + kDomainBits * 16;
constexpr std::size_t kTcwOffset = kValueCwOffset + kDomainBits * 16;
constexpr std::size_t kFinalCwOffset = kTcwOffset + 16;
static_assert(kFinalCwOffset + 16 == kDcfKeyBytes);

void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t get_u64(const std::uint8_t* in) {
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}
void put_payload(std::uint8_t* out, const DcfPayload& p) {
    put_u64(out, p.u);
    put_u64(out + 8, p.v);
}
DcfPayload get_payload(const std::uint8_t* in) { return {get_u64(in), get_u64(in + 8)}; }

/// One child of a GGM node expansion: half of the node's 64-byte block
/// (left = bytes 0..31, right = 32..63) is the child seed followed by its
/// payload convert. The control bit rides as the lsb of the child seed
/// and is masked off, leaving 127-bit effective seeds.
struct Child {
    Block128 seed;
    DcfPayload value;
    bool t;
};

Child child(const std::uint8_t* block, bool right) {
    const std::uint8_t* half = block + (right ? 32 : 0);
    Child c;
    c.seed = Block128::from_bytes(half);
    const Block128 v = Block128::from_bytes(half + 16);
    c.t = (c.seed.lo & 1ULL) != 0;
    c.seed.lo &= ~1ULL;
    c.value = {v.lo, v.hi};
    return c;
}

/// Expand one tree level: blocks[64 i, 64 i + 64) = expansion of seeds[i].
void expand_level(const std::vector<Block128>& seeds, std::vector<std::uint8_t>& blocks) {
    he::kernels::active().chacha20_multikey(reinterpret_cast<const std::uint8_t*>(seeds.data()),
                                            seeds.size(), kNodeNonce, blocks.data());
}

/// Convert a final-level seed into the payload group (the same map the
/// per-level payload converts use).
DcfPayload convert(const Block128& s) { return {s.lo, s.hi}; }

DcfPayload signed_by(bool negate, const DcfPayload& p) { return negate ? p.negated() : p; }

bool path_bit(Ring x, int level) { return ((x >> (kDomainBits - 1 - level)) & 1ULL) != 0; }

}  // namespace

void dcf_gen_batch(std::span<const DcfGenJob> jobs) {
    const std::size_t n = jobs.size();
    // Both parties' seeds on each DCF's alpha path: seeds[2 j + p].
    std::vector<Block128> seeds(2 * n);
    std::vector<std::uint8_t> blocks(2 * n * 64);
    struct Path {
        DcfPayload v_alpha;  // running payload correction along the alpha path
        bool t0 = false, t1 = true;
        std::uint64_t t_cw_left = 0, t_cw_right = 0;
    };
    std::vector<Path> paths(n);
    for (std::size_t j = 0; j < n; ++j) {
        for (int p = 0; p < 2; ++p) {
            seeds[2 * j + static_cast<std::size_t>(p)] = jobs[j].root[p];
            jobs[j].root[p].to_bytes(jobs[j].key[p]);
        }
    }

    for (int i = 0; i < kDomainBits; ++i) {
        expand_level(seeds, blocks);
        for (std::size_t j = 0; j < n; ++j) {
            const DcfGenJob& job = jobs[j];
            Path& path = paths[j];
            const bool alpha_bit = path_bit(job.alpha, i);
            const std::uint8_t* block0 = blocks.data() + 128 * j;
            const std::uint8_t* block1 = block0 + 64;
            // Keep follows the alpha path; Lose is the sibling. When alpha's
            // bit is 1 the lost (left) subtree lies entirely below alpha, so
            // its correction must add beta.
            const Child keep0 = child(block0, alpha_bit), keep1 = child(block1, alpha_bit);
            const Child lose0 = child(block0, !alpha_bit), lose1 = child(block1, !alpha_bit);

            const Block128 seed_cw = lose0.seed ^ lose1.seed;
            DcfPayload value_cw = signed_by(path.t1, lose1.value - lose0.value - path.v_alpha);
            if (alpha_bit) value_cw += signed_by(path.t1, job.beta);
            path.v_alpha =
                path.v_alpha - keep1.value + keep0.value + signed_by(path.t1, value_cw);

            const bool t_cw_lose = lose0.t ^ lose1.t;
            const bool t_cw_keep = keep0.t ^ keep1.t ^ true;
            const bool t_cw_left = alpha_bit ? t_cw_lose : t_cw_keep;
            const bool t_cw_right = alpha_bit ? t_cw_keep : t_cw_lose;
            path.t_cw_left |= static_cast<std::uint64_t>(t_cw_left) << i;
            path.t_cw_right |= static_cast<std::uint64_t>(t_cw_right) << i;

            for (std::uint8_t* key : job.key) {
                seed_cw.to_bytes(key + kSeedCwOffset + 16 * static_cast<std::size_t>(i));
                put_payload(key + kValueCwOffset + 16 * static_cast<std::size_t>(i), value_cw);
            }
            seeds[2 * j] = path.t0 ? (keep0.seed ^ seed_cw) : keep0.seed;
            seeds[2 * j + 1] = path.t1 ? (keep1.seed ^ seed_cw) : keep1.seed;
            path.t0 = keep0.t ^ (path.t0 && t_cw_keep);
            path.t1 = keep1.t ^ (path.t1 && t_cw_keep);
        }
    }

    for (std::size_t j = 0; j < n; ++j) {
        const Path& path = paths[j];
        const DcfPayload final_cw =
            signed_by(path.t1, convert(seeds[2 * j + 1]) - convert(seeds[2 * j]) - path.v_alpha);
        for (std::uint8_t* key : jobs[j].key) {
            put_u64(key + kTcwOffset, path.t_cw_left);
            put_u64(key + kTcwOffset + 8, path.t_cw_right);
            put_payload(key + kFinalCwOffset, final_cw);
        }
    }
}

void dcf_eval_batch(int party, std::span<const DcfEvalJob> jobs, std::span<DcfPayload> out) {
    require(party == 0 || party == 1, "dcf_eval: party must be 0 or 1");
    require(out.size() == jobs.size(), "dcf_eval: one output per job");
    const std::size_t n = jobs.size();
    std::vector<Block128> seeds(n);
    std::vector<std::uint8_t> blocks(n * 64);
    std::vector<std::uint8_t> t(n, party == 1 ? 1 : 0);
    for (std::size_t j = 0; j < n; ++j) {
        seeds[j] = Block128::from_bytes(jobs[j].key);
        out[j] = {};
    }

    for (int i = 0; i < kDomainBits; ++i) {
        expand_level(seeds, blocks);
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint8_t* key = jobs[j].key;
            const bool x_bit = path_bit(jobs[j].x, i);
            // Payload converts are taken RAW (pre-correction); only the child
            // seeds and control bits absorb the correction word.
            Child c = child(blocks.data() + 64 * j, x_bit);
            if (t[j] != 0) {
                const std::size_t level = 16 * static_cast<std::size_t>(i);
                c.value += get_payload(key + kValueCwOffset + level);
                c.seed ^= Block128::from_bytes(key + kSeedCwOffset + level);
                c.t ^= ((get_u64(key + kTcwOffset + (x_bit ? 8 : 0)) >> i) & 1ULL) != 0;
            }
            out[j] += c.value;
            seeds[j] = c.seed;
            t[j] = c.t ? 1 : 0;
        }
    }

    // Party 1's share is the negated walk; negating the sum once equals
    // negating every term in Z_{2^64}.
    for (std::size_t j = 0; j < n; ++j) {
        out[j] += t[j] != 0 ? convert(seeds[j]) + get_payload(jobs[j].key + kFinalCwOffset)
                            : convert(seeds[j]);
        if (party == 1) out[j] = out[j].negated();
    }
}

}  // namespace c2pi::fss
