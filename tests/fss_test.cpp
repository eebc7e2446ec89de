// Unit and integration tests for the FSS comparison subsystem
// (src/fss/): the DCF primitive against a plaintext comparison oracle
// and batches against batches of one, the interval-containment ReLU
// material, the KEYS-frame checks, the key pool, the dealer's golden
// output across kernel tiers and thread counts, and the kFss backend at
// the session layer — cross-backend logit parity (bit-identical vs GC
// and OT), the preprocessing traffic bucket, and the typed
// NonlinearMismatch negotiation error. The
// secure_relu/secure_maxpool protocol-level coverage lives in
// mpc_test.cpp (kFss is a parameterization there); TCP-transport parity
// for kFss lives next to the other transport parity cases in
// tcp_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "crypto/hash.hpp"
#include "crypto/ot.hpp"
#include "fss/compare.hpp"
#include "fss/dcf.hpp"
#include "fss/key_pool.hpp"
#include "he/kernels.hpp"
#include "nn/layers.hpp"
#include "nn/graph.hpp"
#include "pi/session.hpp"

namespace c2pi::fss {
namespace {

constexpr Ring kMid = Ring{1} << 63;
constexpr Ring kMax = ~Ring{0};

/// Plaintext oracle: f(x) = beta if x < alpha else 0, unsigned.
DcfPayload oracle(Ring alpha, const DcfPayload& beta, Ring x) {
    return x < alpha ? beta : DcfPayload{};
}

/// Both parties' serialized keys of one DCF.
struct KeyPair {
    std::vector<std::uint8_t> k[2] = {std::vector<std::uint8_t>(kDcfKeyBytes),
                                      std::vector<std::uint8_t>(kDcfKeyBytes)};
};

/// One DCF dealt as a batch of one, roots drawn from `prg`.
KeyPair gen_one(Ring alpha, const DcfPayload& beta, crypto::ChaCha20Prg& prg) {
    KeyPair kp;
    const DcfGenJob job{.alpha = alpha,
                        .beta = beta,
                        .root = {prg.next_block(), prg.next_block()},
                        .key = {kp.k[0].data(), kp.k[1].data()}};
    dcf_gen_batch({&job, 1});
    return kp;
}

DcfPayload eval_one(const std::vector<std::uint8_t>& key, int party, Ring x) {
    const DcfEvalJob job{key.data(), x};
    DcfPayload out;
    dcf_eval_batch(party, {&job, 1}, {&out, 1});
    return out;
}

TEST(Dcf, MatchesComparisonOracleOnBoundaryAndRandomInputs) {
    crypto::ChaCha20Prg prg(crypto::Block128{0x5EED, 0xF55}, 1);
    const DcfPayload beta{1, 0x1234'5678'9ABC'DEF0ULL};

    std::vector<Ring> alphas = {0, 1, kMid, kMax};
    for (int i = 0; i < 4; ++i) alphas.push_back(prg.next_u64());

    for (const Ring alpha : alphas) {
        const KeyPair keys = gen_one(alpha, beta, prg);
        std::vector<Ring> xs = {0,         1,         alpha - 1, alpha,
                                alpha + 1, kMid - 1,  kMid,      kMax};
        for (int i = 0; i < 8; ++i) xs.push_back(prg.next_u64());
        for (const Ring x : xs) {
            const DcfPayload sum = eval_one(keys.k[0], 0, x) + eval_one(keys.k[1], 1, x);
            EXPECT_EQ(sum, oracle(alpha, beta, x))
                << "alpha=" << alpha << " x=" << x << " (u=" << sum.u << " v=" << sum.v << ")";
        }
    }
}

TEST(Dcf, SingleKeyRevealsNothingObviouslyStructured) {
    // Not a cryptographic test — just a sanity check that one share alone
    // is not the function: party 0's eval at points straddling alpha must
    // not already equal the oracle (the correction from party 1 matters).
    crypto::ChaCha20Prg prg(crypto::Block128{7, 7}, 2);
    const Ring alpha = kMid;
    const DcfPayload beta{1, 99};
    const KeyPair keys = gen_one(alpha, beta, prg);
    int disagreements = 0;
    for (Ring x : {Ring{0}, alpha - 1, alpha, alpha + 1, kMax})
        if (eval_one(keys.k[0], 0, x) != oracle(alpha, beta, x)) ++disagreements;
    EXPECT_GT(disagreements, 0);
}

TEST(Dcf, BatchEqualsBatchesOfOne) {
    // 13 DCFs (26 seeds per keygen level, 13 per eval level): neither is
    // a multiple of the kernel's 8 or 16 lanes, so every level runs SIMD
    // bodies and a scalar tail.
    constexpr std::size_t kCount = 13;
    crypto::ChaCha20Prg prg(crypto::Block128{0xC0DE, 0xC}, 3);
    std::vector<KeyPair> batch(kCount);
    std::vector<DcfGenJob> jobs(kCount);
    for (std::size_t j = 0; j < kCount; ++j)
        jobs[j] = {.alpha = prg.next_u64(),
                   .beta = {prg.next_u64(), prg.next_u64()},
                   .root = {prg.next_block(), prg.next_block()},
                   .key = {batch[j].k[0].data(), batch[j].k[1].data()}};
    dcf_gen_batch(jobs);

    std::vector<DcfEvalJob> evals;
    for (std::size_t j = 0; j < kCount; ++j) {
        KeyPair alone;
        DcfGenJob job = jobs[j];
        job.key[0] = alone.k[0].data();
        job.key[1] = alone.k[1].data();
        dcf_gen_batch({&job, 1});
        EXPECT_EQ(alone.k[0], batch[j].k[0]) << "dcf " << j;
        EXPECT_EQ(alone.k[1], batch[j].k[1]) << "dcf " << j;
        evals.push_back({batch[j].k[1].data(), jobs[j].alpha - (j % 2)});
    }
    std::vector<DcfPayload> got(kCount);
    dcf_eval_batch(1, evals, got);
    for (std::size_t j = 0; j < kCount; ++j)
        EXPECT_EQ(got[j], eval_one(batch[j].k[1], 1, evals[j].x)) << "dcf " << j;
}

/// Party `party`'s share of ReLU(z - r) for record k.
Ring eval_record(std::span<const std::uint8_t> records, std::size_t k, int party, Ring z) {
    return eval_relu_batch(records.subspan(k * kReluKeyBytes, kReluKeyBytes), party, {&z, 1})[0];
}

TEST(FssRelu, MaterialEvaluatesToReluOverSignedBoundaryValues) {
    crypto::ChaCha20Prg prg(crypto::Block128{0xABCD, 0x1}, 4);
    // Signed boundary values encoded into the unsigned ring: zero, +/-1,
    // the most negative value (ring midpoint), the most positive value.
    const std::vector<Ring> ys = {0,        1,        Ring{0} - 1, kMid,
                                  kMid - 1, kMid + 1, 1000,        Ring{0} - 1000};
    constexpr std::size_t kTrials = 8;
    const ReluMaterial m = deal_relu_material(prg, kTrials);
    for (std::size_t k = 0; k < kTrials; ++k) {
        const Ring r = relu_mask_share(m.server, k) + relu_mask_share(m.client, k);
        for (const Ring y : ys) {
            const Ring z = y + r;  // the reconstructed masked value
            const Ring got = eval_record(m.server, k, 0, z) + eval_record(m.client, k, 1, z);
            const Ring want = y < kMid ? y : 0;  // ReLU under signed semantics
            EXPECT_EQ(got, want) << "trial=" << k << " y=" << y;
        }
        for (int i = 0; i < 8; ++i) {
            const Ring y = prg.next_u64();
            const Ring z = y + r;
            EXPECT_EQ(eval_record(m.server, k, 0, z) + eval_record(m.client, k, 1, z),
                      y < kMid ? y : 0);
        }
    }
}

TEST(FssRelu, ClientRejectsRaggedAndMiscountedKeysFrames) {
    crypto::ChaCha20Prg prg(crypto::Block128{0xBA7C, 0x2}, 5);
    const RecordBuffer records = deal_relu_material(prg, 3).client;
    ASSERT_EQ(records.size(), 3 * kReluKeyBytes);

    const auto ship = [&](std::span<const std::uint8_t> payload, std::size_t expect) {
        net::DuplexChannel channel;
        net::InProcTransport server(channel, 0);
        net::InProcTransport client(channel, 1);
        server.send_keys_bytes(payload);
        KeyPool pool;
        client_replenish(client, pool, expect);
        return pool.size();
    };
    EXPECT_EQ(ship(records, 3), 3U);
    EXPECT_THROW((void)ship(std::span(records).first(records.size() - 1), 3), Error);
    EXPECT_THROW((void)ship(records, 2), Error);

    // The pool itself refuses ragged shipments, adopts one shipment per
    // session, and never hands out more records than were dealt.
    KeyPool pool;
    EXPECT_THROW(pool.push(std::vector<std::uint8_t>(kReluKeyBytes + 1)), Error);
    pool.push(records);
    EXPECT_THROW(pool.push(records), Error);
    EXPECT_TRUE(std::ranges::equal(pool.take(1), std::span(records).first(kReluKeyBytes)));
    EXPECT_THROW((void)pool.take(3), Error);
    EXPECT_TRUE(std::ranges::equal(pool.take(2), std::span(records).subspan(kReluKeyBytes)));
    EXPECT_EQ(pool.size(), 0U);
}

std::string hex(const std::array<std::uint8_t, 32>& digest) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : digest) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xF];
    }
    return out;
}

/// Pins the dealer's output bytes: the SHA-256 of both parties' records
/// for 300 comparisons (not a multiple of the kernel lane width or the
/// dealing chunk) from a fixed seed, as the per-node dealer produced them
/// — under every kernel tier and with 1 and 4 threads. The same material
/// must evaluate to ReLU(y) at the signed boundary values.
TEST(FssDealer, GoldenKeysDigestAcrossTiersAndThreads) {
    constexpr std::size_t kCount = 300;
    const std::vector<Ring> ys = {0,
                                  1,
                                  Ring{0} - 1,
                                  Ring{1} << 62,
                                  Ring{0} - (Ring{1} << 62),
                                  kMid,       // most negative
                                  kMid - 1};  // most positive
    for (const auto* tier : he::kernels::supported()) {
        he::kernels::set_active_for_testing(tier);
        for (const int nthreads : {1, 4}) {
            SCOPED_TRACE(std::string(tier->name) + ", threads=" + std::to_string(nthreads));
            const core::ThreadPool threads(nthreads);
            net::DuplexChannel channel;
            net::InProcTransport server(channel, 0);
            net::InProcTransport client(channel, 1);
            crypto::ChaCha20Prg prg(crypto::Block128{0x601D, 0xDEA1}, 6);
            KeyPool server_pool, client_pool;
            dealer_replenish(server, prg, server_pool, kCount, &threads);
            client_replenish(client, client_pool, kCount);
            const auto mine = server_pool.take(kCount);
            const auto theirs = client_pool.take(kCount);
            EXPECT_EQ(hex(crypto::Sha256::digest(theirs)),
                      "daddd32f2d8752d19f50703da73eabb0825925d1bf8bb3747e24bc6f1246a5ce");
            EXPECT_EQ(hex(crypto::Sha256::digest(mine)),
                      "cd4280be849cb1bda924e5ff073664107691795503191d98a8209423e7177ea5");

            std::vector<Ring> z(kCount);
            for (std::size_t k = 0; k < kCount; ++k)
                z[k] = ys[k % ys.size()] + relu_mask_share(mine, k) + relu_mask_share(theirs, k);
            const auto out0 = eval_relu_batch(mine, 0, z, &threads);
            const auto out1 = eval_relu_batch(theirs, 1, z, &threads);
            for (std::size_t k = 0; k < kCount; ++k) {
                const Ring y = ys[k % ys.size()];
                ASSERT_EQ(out0[k] + out1[k], y < kMid ? y : 0) << "comparison " << k;
            }
        }
    }
    he::kernels::set_active_for_testing(nullptr);
}

// ------------------------------------------------- session integration ---

/// Smaller than pi_test's reference net (one conv block) but still
/// covering every nonlinear protocol: ReLU and 2x2 maxpool.
nn::Graph make_fss_test_model() {
    Rng rng(21);
    nn::Graph m;
    m.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::MaxPool2d>(2, 2);
    m.emplace<nn::Flatten>();
    m.emplace<nn::Linear>(4 * 4 * 4, 8, rng);
    m.emplace<nn::Relu>();
    m.emplace<nn::Linear>(8, 5, rng);
    return m;
}

pi::CompiledModel::Options fss_compile_options(bool full_pi) {
    pi::CompiledModel::Options opts;
    opts.input_chw = {3, 8, 8};
    opts.he_ring_degree = 1024;
    if (!full_pi) opts.boundary = nn::CutPoint{.linear_index = 1, .after_relu = true};
    return opts;
}

Tensor make_fss_test_input() {
    Rng rng(22);
    return Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
}

struct ParityCase {
    const char* name;
    pi::PiBackend backend;
    bool full_pi;
};

class CrossBackendParityTest : public ::testing::TestWithParam<ParityCase> {};

/// The tentpole acceptance criterion: for one compiled model and one
/// input, the three nonlinear backends must produce BIT-IDENTICAL
/// logits. The nonlinear protocols differ in how shares are produced
/// but reconstruct the same ring values, and everything downstream of
/// reconstruction is deterministic.
TEST_P(CrossBackendParityTest, LogitsBitIdenticalAcrossNonlinearBackends) {
    const ParityCase& pc = GetParam();
    const nn::Graph model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(pc.full_pi));
    const Tensor input = make_fss_test_input();

    pi::SessionConfig config{.backend = pc.backend};
    config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::PiResult gc = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kOtMillionaire;
    const pi::PiResult ot = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kFss;
    const pi::PiResult fss = pi::run_private_inference(compiled, config, input);

    ASSERT_TRUE(gc.logits.same_shape(fss.logits));
    ASSERT_TRUE(ot.logits.same_shape(fss.logits));
    for (std::int64_t i = 0; i < gc.logits.numel(); ++i) {
        EXPECT_EQ(gc.logits[i], fss.logits[i]) << "gc vs fss, logit " << i;
        EXPECT_EQ(ot.logits[i], fss.logits[i]) << "ot vs fss, logit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossBackendParityTest,
    ::testing::Values(ParityCase{"CheetahFullPi", pi::PiBackend::kCheetah, true},
                      ParityCase{"DelphiFullPi", pi::PiBackend::kDelphi, true},
                      ParityCase{"CheetahCryptoClear", pi::PiBackend::kCheetah, false}),
    [](const auto& info) { return info.param.name; });

/// The satellite acceptance criterion: FSS moves the nonlinear traffic
/// into the preprocessing bucket, so for the same model its ONLINE bytes
/// must be strictly below GC's, while GC ships nothing in preprocessing.
TEST(FssSession, OnlineBytesStrictlyBelowGc) {
    const nn::Graph model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    pi::SessionConfig config;
    config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::PiResult gc = pi::run_private_inference(compiled, config, input);
    config.nonlinear = mpc::NonlinearBackend::kFss;
    const pi::PiResult fss = pi::run_private_inference(compiled, config, input);

    EXPECT_EQ(gc.stats.preprocess_bytes, 0U);
    EXPECT_EQ(gc.stats.preprocess_flights, 0U);
    // The preprocessing bucket holds exactly the plan-sized key shipment
    // (no flight of its own: the KEYS frame rides the server->client
    // flight the dealer-setup message already opened).
    EXPECT_EQ(fss.stats.preprocess_bytes,
              pi::count_fss_comparisons(compiled.plan()) * kReluKeyBytes);
    EXPECT_LT(fss.stats.online_bytes, gc.stats.online_bytes)
        << "FSS online traffic must undercut GC once keys are preprocessed";
}

TEST(FssSession, MismatchedClientRaisesTypedError) {
    const nn::Graph model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    // Scripted fake server: send only the dealer-setup message, with the
    // trailing byte announcing kFss, then return. The real client is
    // explicitly configured for GC and must fail with the TYPED mismatch
    // error before any protocol round (a real server/client pair would
    // otherwise hang mid-protocol).
    pi::SessionConfig client_config;
    client_config.nonlinear = mpc::NonlinearBackend::kGarbledCircuit;
    const pi::ClientSession client(compiled, client_config);

    net::DuplexChannel channel;
    EXPECT_THROW(
        (void)net::run_two_party(
            channel,
            [](net::Transport& t) {
                std::vector<std::uint8_t> setup(crypto::OtSetupPair::setup_traffic_bytes() + 1);
                setup.back() = static_cast<std::uint8_t>(mpc::NonlinearBackend::kFss);
                t.send_bytes(setup);
            },
            [&](net::Transport& t) { (void)client.run(t, input); }),
        pi::NonlinearMismatch);
}

TEST(FssSession, UnknownAnnouncedBackendRejected) {
    const nn::Graph model = make_fss_test_model();
    const pi::CompiledModel compiled(model, fss_compile_options(/*full_pi=*/true));
    const Tensor input = make_fss_test_input();

    const pi::ClientSession client(compiled, pi::SessionConfig{});
    net::DuplexChannel channel;
    EXPECT_THROW((void)net::run_two_party(
                     channel,
                     [](net::Transport& t) {
                         std::vector<std::uint8_t> setup(
                             crypto::OtSetupPair::setup_traffic_bytes() + 1);
                         setup.back() = 0x7F;  // no such backend
                         t.send_bytes(setup);
                     },
                     [&](net::Transport& t) { (void)client.run(t, input); }),
                 Error);
}

}  // namespace
}  // namespace c2pi::fss
