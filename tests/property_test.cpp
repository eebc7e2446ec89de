// Cross-module property tests: secure inference on randomized small
// architectures must match plaintext inference (parameterized over
// architecture variants including the AvgPool path), the millionaire
// protocol at ring boundary values, GC max circuits across window sizes,
// and end-to-end determinism of the whole pipeline.

#include <gtest/gtest.h>

#include <random>

#include "crypto/garbling.hpp"
#include "he/kernels.hpp"
#include "he/ntt.hpp"
#include "nn/layers.hpp"
#include "nn/graph.hpp"
#include "pi/session.hpp"
#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"

namespace c2pi {
namespace {

// ---------------------------------------------------- engine x architectures ---

struct ArchCase {
    const char* name;
    pi::PiBackend backend;
    int variant;
};

nn::Graph build_variant(int variant, Rng& rng) {
    nn::Graph m;
    switch (variant) {
        case 0:  // conv -> relu -> fc (minimal)
            m.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
            m.emplace<nn::Relu>();
            m.emplace<nn::Flatten>();
            m.emplace<nn::Linear>(4 * 8 * 8, 5, rng);
            break;
        case 1:  // avgpool path (linear pooling under MPC is local)
            m.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
            m.emplace<nn::Relu>();
            m.emplace<nn::AvgPool2d>(2, 2);
            m.emplace<nn::Flatten>();
            m.emplace<nn::Linear>(4 * 4 * 4, 5, rng);
            break;
        case 2:  // stride-2 conv, no padding, maxpool, two fcs
            m.emplace<nn::Conv2d>(3, 6, ops::ConvSpec{.kernel = 3, .stride = 2, .pad = 1}, rng);
            m.emplace<nn::Relu>();
            m.emplace<nn::MaxPool2d>(2, 2);
            m.emplace<nn::Flatten>();
            m.emplace<nn::Linear>(6 * 2 * 2, 8, rng);
            m.emplace<nn::Relu>();
            m.emplace<nn::Linear>(8, 5, rng);
            break;
        default:  // conv stack without bias
            m.emplace<nn::Conv2d>(3, 4, ops::ConvSpec{.kernel = 1, .stride = 1, .pad = 0}, rng,
                                  /*with_bias=*/false);
            m.emplace<nn::Relu>();
            m.emplace<nn::Conv2d>(4, 4, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
            m.emplace<nn::Relu>();
            m.emplace<nn::Flatten>();
            m.emplace<nn::Linear>(4 * 8 * 8, 5, rng);
            break;
    }
    return m;
}

class EngineArchTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(EngineArchTest, SecureInferenceMatchesPlaintext) {
    const auto param = GetParam();
    Rng rng(33 + static_cast<std::uint64_t>(param.variant));
    nn::Graph model = build_variant(param.variant, rng);
    const Tensor x = Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
    const Tensor want = model.forward(x);

    pi::CompiledModel::Options copts;
    copts.input_chw = {3, 8, 8};
    copts.he_ring_degree = 512;
    const pi::CompiledModel compiled(model, copts);
    const auto res =
        pi::run_private_inference(compiled, pi::SessionConfig{.backend = param.backend}, x);
    ASSERT_TRUE(res.logits.same_shape(want));
    for (std::int64_t i = 0; i < want.numel(); ++i)
        EXPECT_NEAR(res.logits[i], want[i], 0.02F) << param.name << " logit " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, EngineArchTest,
    ::testing::Values(ArchCase{"minimal_cheetah", pi::PiBackend::kCheetah, 0},
                      ArchCase{"avgpool_cheetah", pi::PiBackend::kCheetah, 1},
                      ArchCase{"stride2_cheetah", pi::PiBackend::kCheetah, 2},
                      ArchCase{"nobias_cheetah", pi::PiBackend::kCheetah, 3},
                      ArchCase{"minimal_delphi", pi::PiBackend::kDelphi, 0},
                      ArchCase{"avgpool_delphi", pi::PiBackend::kDelphi, 1},
                      ArchCase{"stride2_delphi", pi::PiBackend::kDelphi, 2}));

TEST(EngineDeterminism, SameSeedSameTrafficAndLogits) {
    Rng rng(44);
    nn::Graph model = build_variant(0, rng);
    const Tensor x = Tensor::uniform({1, 3, 8, 8}, rng, 0.0F, 1.0F);
    pi::CompiledModel::Options copts;
    copts.input_chw = {3, 8, 8};
    copts.he_ring_degree = 512;
    const pi::SessionConfig cfg{.seed = 777};
    const pi::CompiledModel a(model, copts);
    const auto ra = pi::run_private_inference(a, cfg, x);
    const pi::CompiledModel b(model, copts);
    const auto rb = pi::run_private_inference(b, cfg, x);
    EXPECT_TRUE(ra.logits.allclose(rb.logits, 0.0F));
    EXPECT_EQ(ra.stats.total_bytes(), rb.stats.total_bytes());
    EXPECT_EQ(ra.stats.total_flights(), rb.stats.total_flights());
}

// ----------------------------------------------------- millionaire boundaries ---

TEST(MillionaireEdges, RingBoundaryValues) {
    net::DuplexChannel channel;
    const FixedPointFormat fmt{.frac_bits = 16};
    const he::BfvContext bfv({.n = 256, .limbs = 4});
    constexpr Ring kLow = (Ring{1} << 63) - 1;
    // Edge pairs (a, c) for 1{a > c} on 63-bit operands.
    const std::vector<Ring> a{0, kLow, kLow, 0, 1, kLow - 1, 12345};
    const std::vector<Ring> c{0, kLow, 0, kLow, 0, kLow, 12345};
    mpc::BitVec b0, b1;
    net::run_two_party(
        channel,
        [&](net::Transport& t) {
            mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{3, 3});
            b0 = mpc::millionaire_party0(ctx, a);
        },
        [&](net::Transport& t) {
            mpc::PartyContext ctx(t, fmt, bfv, crypto::Block128{3, 3});
            b1 = mpc::millionaire_party1(ctx, c);
        });
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ((b0[i] ^ b1[i]) != 0, a[i] > c[i]) << "pair " << i;
}

// ------------------------------------------------------------ GC max windows ---

class MaxCircuitWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxCircuitWidthTest, GarbledMaxMatchesPlain) {
    const int k = GetParam();
    const crypto::Circuit circuit = crypto::build_max_circuit(64, k);
    crypto::ChaCha20Prg grg(crypto::Block128{10, static_cast<std::uint64_t>(k)});
    Rng rng(55 + static_cast<std::uint64_t>(k));
    for (int trial = 0; trial < 5; ++trial) {
        const crypto::Garbling g = crypto::garble(circuit, grg);
        std::vector<std::uint8_t> gbits, ebits;
        std::vector<std::int64_t> values(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
            values[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(rng.next_u64()) >> 4;
            const std::uint64_t x1 = rng.next_u64();
            const std::uint64_t x0 =
                static_cast<std::uint64_t>(values[static_cast<std::size_t>(i)]) - x1;
            const auto b0 = crypto::to_bits(x0, 64);
            const auto b1 = crypto::to_bits(x1, 64);
            gbits.insert(gbits.end(), b0.begin(), b0.end());
            ebits.insert(ebits.end(), b1.begin(), b1.end());
        }
        const std::uint64_t r = rng.next_u64();
        const auto neg_r = crypto::to_bits(~r + 1, 64);
        gbits.insert(gbits.end(), neg_r.begin(), neg_r.end());

        std::vector<crypto::Block128> ga, ea;
        for (std::size_t i = 0; i < gbits.size(); ++i) ga.push_back(g.garbler_label(i, gbits[i]));
        for (std::size_t i = 0; i < ebits.size(); ++i) ea.push_back(g.evaluator_label(i, ebits[i]));
        const auto out = crypto::evaluate_garbled(circuit, g.tables, ga, ea, g.output_decode);
        const std::int64_t mx = *std::max_element(values.begin(), values.end());
        EXPECT_EQ(crypto::from_bits(out), static_cast<std::uint64_t>(mx) - r) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, MaxCircuitWidthTest, ::testing::Values(2, 3, 4, 9));

// ---------------------------------------------------------- truncation sweep ---

class TruncationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweepTest, SharewiseTruncationBoundedError) {
    const int frac = GetParam();
    const FixedPointFormat fmt{.frac_bits = frac};
    Rng rng(66);
    for (int trial = 0; trial < 100; ++trial) {
        const double v = rng.uniform(-50.0F, 50.0F);
        const Ring scaled = static_cast<Ring>(
            static_cast<std::int64_t>(std::llround(v * fmt.scale() * fmt.scale())));
        const Ring s0 = rng.next_u64();
        const Ring s1 = scaled - s0;
        const Ring back = fmt.truncate(s0) + fmt.truncate(s1);
        EXPECT_NEAR(fmt.decode(back), v, 3.0 / fmt.scale());
    }
}

INSTANTIATE_TEST_SUITE_P(FracBits, TruncationSweepTest, ::testing::Values(8, 12, 16, 20));

// ------------------------------------------------- kernel variant properties ---
// Randomized algebraic properties of the SIMD kernel layer, >= 1000
// seeds per registered variant (unsupported ISAs are skipped by
// kernels::supported() at runtime). The differential suite in
// kernels_test.cpp pins variants against each other; these pin each
// variant against the mathematics.

TEST(KernelProperty, NttRoundTripIdentityPerVariant) {
    constexpr std::size_t n = 64;
    const he::u64 p = he::next_ntt_prime((1ULL << 49) + 1, 2 * n);
    const he::NttTables tables(p, n);
    for (const auto* k : he::kernels::supported()) {
        for (std::uint64_t seed = 0; seed < 1000; ++seed) {
            std::mt19937_64 rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
            std::vector<he::u64> a(n);
            for (auto& x : a) x = rng() % p;
            std::vector<he::u64> b = a;
            tables.forward_with(*k, b);
            tables.inverse_with(*k, b);
            ASSERT_EQ(b, a) << "variant " << k->name << " seed " << seed;
        }
    }
}

TEST(KernelProperty, MulShoupMatchesInt128OraclePerVariant) {
    constexpr std::size_t n = 16;
    const he::u64 p = he::next_ntt_prime((1ULL << 49) + 1, 8192);
    for (const auto* k : he::kernels::supported()) {
        for (std::uint64_t seed = 0; seed < 1000; ++seed) {
            std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
            std::vector<he::u64> a(n), w(n), ws(n), got(n);
            for (std::size_t j = 0; j < n; ++j) {
                a[j] = rng() % p;
                w[j] = rng() % p;
                ws[j] = he::shoup_precompute(w[j], p);
            }
            k->mul_shoup(got.data(), a.data(), w.data(), ws.data(), n, p);
            for (std::size_t j = 0; j < n; ++j) {
                const he::u64 want =
                    static_cast<he::u64>(static_cast<he::u128>(a[j]) * w[j] % p);
                ASSERT_EQ(got[j], want)
                    << "variant " << k->name << " seed " << seed << " j " << j;
            }
        }
    }
}

TEST(KernelProperty, AccumulateLinearityPerVariant) {
    constexpr std::size_t n = 32;
    const he::u64 p = he::next_ntt_prime((1ULL << 49) + 1, 8192);
    for (const auto* k : he::kernels::supported()) {
        for (std::uint64_t seed = 0; seed < 1000; ++seed) {
            std::mt19937_64 rng(seed * 0xD1342543DE82EF95ULL + 7);
            std::vector<he::u64> a(n), b(n), w(n), ws(n);
            for (std::size_t j = 0; j < n; ++j) {
                a[j] = rng() % p;
                b[j] = rng() % p;
                w[j] = rng() % p;
                ws[j] = he::shoup_precompute(w[j], p);
            }
            // acc = a*w, then += b*w — must equal (a + b)*w by the oracle.
            std::vector<he::u64> acc(n, 0);
            k->mul_shoup_accumulate(acc.data(), a.data(), w.data(), ws.data(), n, p);
            k->mul_shoup_accumulate(acc.data(), b.data(), w.data(), ws.data(), n, p);
            for (std::size_t j = 0; j < n; ++j) {
                const he::u128 sum = static_cast<he::u128>(a[j]) + b[j];
                const he::u64 want = static_cast<he::u64>(sum % p * w[j] % p);
                ASSERT_EQ(acc[j], want)
                    << "variant " << k->name << " seed " << seed << " j " << j;
            }
        }
    }
}

}  // namespace
}  // namespace c2pi
