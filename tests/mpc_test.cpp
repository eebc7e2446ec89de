// Tests for the MPC protocol layer: fixed-point ring tensors, truncation
// error bounds, millionaire comparison, DReLU, multiplexer, secure ReLU
// under both backends, secure MaxPool, and HE-based conv/FC protocols —
// each verified against plaintext references over the threaded channel.

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "mpc/linear.hpp"
#include "tensor/tensor_ops.hpp"
#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"

namespace c2pi::mpc {
namespace {

struct MpcFixture {
    net::DuplexChannel channel;
    FixedPointFormat fmt{.frac_bits = 16};
    he::BfvContext bfv{he::BfvContext::Params{.n = 1024, .limbs = 4, .noise_bound = 4}};
    crypto::Block128 session_seed{0xDEAD, 0xBEEF};

    /// Run server/client bodies with fresh contexts; returns both outputs.
    template <typename S, typename C>
    void run(S&& server_body, C&& client_body) {
        net::run_two_party(
            channel,
            [&](net::Transport& t) {
                PartyContext ctx(t, fmt, bfv, session_seed);
                server_body(ctx);
            },
            [&](net::Transport& t) {
                PartyContext ctx(t, fmt, bfv, session_seed);
                crypto::ChaCha20Prg key_prg(crypto::Block128{42, 43});
                ctx.set_client_key(bfv.keygen(key_prg));
                client_body(ctx);
            });
    }
};

/// Split plaintext ring values into random shares.
std::pair<std::vector<Ring>, std::vector<Ring>> make_shares(std::span<const Ring> values,
                                                            std::uint64_t seed) {
    c2pi::Rng rng(seed);
    std::vector<Ring> s0(values.size()), s1(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        s0[i] = rng.next_u64();
        s1[i] = values[i] - s0[i];
    }
    return {std::move(s0), std::move(s1)};
}

TEST(RingTensorOps, EncodeDecodeRoundTrip) {
    const FixedPointFormat fmt{.frac_bits = 16};
    c2pi::Rng rng(1);
    const Tensor t = Tensor::uniform({2, 3, 4}, rng, -5.0F, 5.0F);
    const RingTensor r = encode_tensor(t, fmt);
    const Tensor back = decode_tensor(r, fmt);
    EXPECT_TRUE(t.allclose(back, 2.0F / static_cast<float>(fmt.scale())));
}

TEST(RingTensorOps, TruncationErrorWithinOneUlp) {
    const FixedPointFormat fmt{.frac_bits = 16};
    c2pi::Rng rng(2);
    for (int trial = 0; trial < 200; ++trial) {
        const double value = rng.uniform(-100.0F, 100.0F);
        // Scale-2f value split into random shares, truncated per share.
        const Ring v2f = static_cast<Ring>(
            static_cast<std::int64_t>(std::llround(value * fmt.scale() * fmt.scale())));
        const Ring s0 = rng.next_u64();
        const Ring s1 = v2f - s0;
        const Ring t0 = static_cast<Ring>(static_cast<std::int64_t>(s0) >> fmt.frac_bits);
        const Ring t1 = static_cast<Ring>(static_cast<std::int64_t>(s1) >> fmt.frac_bits);
        const double back = fmt.decode(t0 + t1);
        EXPECT_NEAR(back, value, 3.0 / fmt.scale()) << value;
    }
}

TEST(Millionaire, ComparesCorrectly) {
    MpcFixture fx;
    c2pi::Rng rng(3);
    const std::size_t n = 64;
    std::vector<Ring> a(n), c(n);
    constexpr Ring kLow = (Ring{1} << 63) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.next_u64() & kLow;
        c[i] = rng.next_u64() & kLow;
    }
    a[0] = c[0];       // equality edge
    a[1] = c[1] + 1;   // just above
    a[2] = c[2] - 1;   // just below (if c[2]>0)
    BitVec b0, b1;
    fx.run([&](PartyContext& ctx) { b0 = millionaire_party0(ctx, a); },
           [&](PartyContext& ctx) { b1 = millionaire_party1(ctx, c); });
    for (std::size_t i = 0; i < n; ++i) {
        const bool want = a[i] > c[i];
        EXPECT_EQ((b0[i] ^ b1[i]) != 0, want) << "element " << i;
    }
}

TEST(Drelu, SignSharesCorrect) {
    MpcFixture fx;
    c2pi::Rng rng(4);
    const std::size_t n = 100;
    std::vector<Ring> values(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double v = rng.uniform(-50.0F, 50.0F);
        values[i] = fx.fmt.encode(v);
    }
    values[0] = 0;                      // zero edge: counts as non-negative
    values[1] = fx.fmt.encode(-0.0001); // tiny negative
    auto [s0, s1] = make_shares(values, 5);
    BitVec b0, b1;
    fx.run([&](PartyContext& ctx) { b0 = drelu_shares(ctx, s0); },
           [&](PartyContext& ctx) { b1 = drelu_shares(ctx, s1); });
    for (std::size_t i = 0; i < n; ++i) {
        const bool non_negative = static_cast<std::int64_t>(values[i]) >= 0;
        EXPECT_EQ((b0[i] ^ b1[i]) != 0, non_negative) << "element " << i;
    }
}

TEST(Mux, SelectsValueOrZero) {
    MpcFixture fx;
    c2pi::Rng rng(6);
    const std::size_t n = 50;
    std::vector<Ring> values(n);
    std::vector<std::uint8_t> bits(n), bits0(n), bits1(n);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = rng.next_u64();
        bits[i] = static_cast<std::uint8_t>(rng.next_u64() & 1);
        bits0[i] = static_cast<std::uint8_t>(rng.next_u64() & 1);
        bits1[i] = bits[i] ^ bits0[i];
    }
    auto [s0, s1] = make_shares(values, 7);
    std::vector<Ring> z0, z1;
    fx.run([&](PartyContext& ctx) { z0 = mux_shares(ctx, bits0, s0); },
           [&](PartyContext& ctx) { z1 = mux_shares(ctx, bits1, s1); });
    for (std::size_t i = 0; i < n; ++i) {
        const Ring want = bits[i] ? values[i] : 0;
        EXPECT_EQ(z0[i] + z1[i], want) << i;
    }
}

class SecureReluTest : public ::testing::TestWithParam<NonlinearBackend> {};

TEST_P(SecureReluTest, MatchesPlaintextRelu) {
    const NonlinearBackend backend = GetParam();
    MpcFixture fx;
    c2pi::Rng rng(8);
    const std::size_t n = 80;
    std::vector<Ring> values(n);
    std::vector<double> plain(n);
    for (std::size_t i = 0; i < n; ++i) {
        plain[i] = rng.uniform(-20.0F, 20.0F);
        values[i] = fx.fmt.encode(plain[i]);
    }
    auto [s0, s1] = make_shares(values, 9);
    std::vector<Ring> z0, z1;
    fx.run([&](PartyContext& ctx) { z0 = secure_relu(ctx, s0, backend); },
           [&](PartyContext& ctx) { z1 = secure_relu(ctx, s1, backend); });
    for (std::size_t i = 0; i < n; ++i) {
        const double want = plain[i] > 0 ? plain[i] : 0.0;
        EXPECT_NEAR(fx.fmt.decode(z0[i] + z1[i]), want, 2.0 / fx.fmt.scale()) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, SecureReluTest,
                         ::testing::Values(NonlinearBackend::kGarbledCircuit,
                                           NonlinearBackend::kOtMillionaire,
                                           NonlinearBackend::kFss));

TEST(SecureRelu, GcBackendHonoursPinnedClientShare) {
    MpcFixture fx;
    c2pi::Rng rng(10);
    const std::size_t n = 16;
    std::vector<Ring> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = fx.fmt.encode(rng.uniform(-5.0F, 5.0F));
    auto [s0, s1] = make_shares(values, 11);
    std::vector<Ring> pinned(n);
    for (std::size_t i = 0; i < n; ++i) pinned[i] = 0x1000 + i;
    std::vector<Ring> z0, z1;
    fx.run(
        [&](PartyContext& ctx) {
            z0 = secure_relu(ctx, s0, NonlinearBackend::kGarbledCircuit);
        },
        [&](PartyContext& ctx) {
            z1 = secure_relu(ctx, s1, NonlinearBackend::kGarbledCircuit, pinned);
        });
    EXPECT_EQ(z1, pinned);
    for (std::size_t i = 0; i < n; ++i) {
        const double want = std::max(fx.fmt.decode(values[i]), 0.0);
        EXPECT_NEAR(fx.fmt.decode(z0[i] + z1[i]), want, 2.0 / fx.fmt.scale());
    }
}

class SecureMaxPoolTest : public ::testing::TestWithParam<NonlinearBackend> {};

TEST_P(SecureMaxPoolTest, MatchesPlaintextMaxPool) {
    const NonlinearBackend backend = GetParam();
    MpcFixture fx;
    c2pi::Rng rng(12);
    const std::int64_t c = 2, h = 6, w = 6;
    Tensor x({1, c, h, w});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-3.0F, 3.0F);
    const auto pooled = c2pi::ops::maxpool2d(x, 2, 2);

    RingTensor rx({c, h, w});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        rx.data[static_cast<std::size_t>(i)] = fx.fmt.encode(x[i]);
    auto [s0, s1] = make_shares(rx.data, 13);

    RingTensor z0, z1;
    fx.run(
        [&](PartyContext& ctx) {
            z0 = secure_maxpool(ctx, RingTensor({c, h, w}, s0), 2, 2, backend);
        },
        [&](PartyContext& ctx) {
            z1 = secure_maxpool(ctx, RingTensor({c, h, w}, s1), 2, 2, backend);
        });
    ASSERT_EQ(z0.shape, (Shape{c, 3, 3}));
    for (std::int64_t i = 0; i < pooled.output.numel(); ++i) {
        EXPECT_NEAR(fx.fmt.decode(z0.data[static_cast<std::size_t>(i)] +
                                  z1.data[static_cast<std::size_t>(i)]),
                    pooled.output[i], 2.0 / fx.fmt.scale())
            << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, SecureMaxPoolTest,
                         ::testing::Values(NonlinearBackend::kGarbledCircuit,
                                           NonlinearBackend::kOtMillionaire,
                                           NonlinearBackend::kFss));

TEST(Reveal, BothPartiesRecoverValue) {
    MpcFixture fx;
    std::vector<Ring> values{1, 2, 0xFFFFFFFFFFFFFFFFULL};
    auto [s0, s1] = make_shares(values, 14);
    std::vector<Ring> r0, r1;
    fx.run([&](PartyContext& ctx) { r0 = reveal_shares(ctx, s0); },
           [&](PartyContext& ctx) { r1 = reveal_shares(ctx, s1); });
    EXPECT_EQ(r0, values);
    EXPECT_EQ(r1, values);
}

TEST(Reveal, DirectedRevealOnlyToTarget) {
    MpcFixture fx;
    std::vector<Ring> values{7, 8, 9};
    auto [s0, s1] = make_shares(values, 15);
    std::vector<Ring> r0, r1;
    fx.run([&](PartyContext& ctx) { r0 = reveal_shares_to(ctx, s0, kServer); },
           [&](PartyContext& ctx) { r1 = reveal_shares_to(ctx, s1, kServer); });
    EXPECT_EQ(r0, values);
    EXPECT_TRUE(r1.empty());
}

TEST(HeConv, SharesSumToPlaintextConv) {
    MpcFixture fx;
    c2pi::Rng rng(16);
    const he::ConvGeometry geo{.in_channels = 3, .height = 8, .width = 8, .out_channels = 4,
                               .kernel = 3, .stride = 1, .pad = 1};
    std::vector<Ring> x(static_cast<std::size_t>(geo.in_channels * geo.height * geo.width));
    for (auto& v : x) v = fx.fmt.encode(rng.uniform(-1.0F, 1.0F));
    std::vector<Ring> w(static_cast<std::size_t>(geo.out_channels * geo.in_channels * 9));
    for (auto& v : w) v = fx.fmt.encode(rng.uniform(-0.5F, 0.5F));
    std::vector<Ring> bias(static_cast<std::size_t>(geo.out_channels));
    for (std::size_t i = 0; i < bias.size(); ++i)
        bias[i] = static_cast<Ring>(static_cast<std::int64_t>(
            std::llround(0.1 * static_cast<double>(i + 1) * fx.fmt.scale() * fx.fmt.scale())));

    auto [x0, x1] = make_shares(x, 17);
    const ConvLayerCache cache(fx.bfv, geo, w, bias);
    std::vector<Ring> y0, y1;
    fx.run([&](PartyContext& ctx) { y0 = he_conv_server(ctx, cache, x0); },
           [&](PartyContext& ctx) { y1 = he_conv_client(ctx, cache.enc, x1); });

    auto want = ring_conv2d(geo, x, w);
    const std::int64_t pixels = geo.out_h() * geo.out_w();
    for (std::int64_t o = 0; o < geo.out_channels; ++o)
        for (std::int64_t i = 0; i < pixels; ++i)
            want[static_cast<std::size_t>(o * pixels + i)] += bias[static_cast<std::size_t>(o)];
    ASSERT_EQ(y0.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(y0[i] + y1[i], want[i]) << i;
}

TEST(HeConv, MultiGroupGeometry) {
    MpcFixture fx;  // n=1024, 10x10 padded to 12x12=144 -> 7 channels/group
    c2pi::Rng rng(18);
    const he::ConvGeometry geo{.in_channels = 9, .height = 10, .width = 10, .out_channels = 2,
                               .kernel = 3, .stride = 1, .pad = 1};
    std::vector<Ring> x(static_cast<std::size_t>(geo.in_channels * 100));
    for (auto& v : x) v = rng.next_u64();
    std::vector<Ring> w(static_cast<std::size_t>(geo.out_channels * geo.in_channels * 9));
    for (auto& v : w)
        v = static_cast<Ring>(static_cast<std::int64_t>(rng.next_u64() % 1001) - 500);

    auto [x0, x1] = make_shares(x, 19);
    const ConvLayerCache cache(fx.bfv, geo, w, {});
    std::vector<Ring> y0, y1;
    fx.run([&](PartyContext& ctx) { y0 = he_conv_server(ctx, cache, x0); },
           [&](PartyContext& ctx) { y1 = he_conv_client(ctx, cache.enc, x1); });
    const auto want = ring_conv2d(geo, x, w);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(y0[i] + y1[i], want[i]) << i;
}

TEST(HeMatVec, SharesSumToPlaintextMatVec) {
    MpcFixture fx;
    c2pi::Rng rng(20);
    const std::int64_t in = 96, out = 30;
    std::vector<Ring> x(static_cast<std::size_t>(in)), w(static_cast<std::size_t>(in * out));
    for (auto& v : x) v = rng.next_u64();
    for (auto& v : w)
        v = static_cast<Ring>(static_cast<std::int64_t>(rng.next_u64() % 1001) - 500);
    std::vector<Ring> bias(static_cast<std::size_t>(out));
    for (auto& v : bias) v = rng.next_u64() % 10000;

    auto [x0, x1] = make_shares(x, 21);
    const MatVecLayerCache cache(fx.bfv, in, out, w, bias);
    std::vector<Ring> y0, y1;
    fx.run([&](PartyContext& ctx) { y0 = he_matvec_server(ctx, cache, x0); },
           [&](PartyContext& ctx) { y1 = he_matvec_client(ctx, cache.enc, x1); });
    auto want = ring_matvec(w, x, in, out);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(y0[i] + y1[i], want[i] + bias[i]) << i;
}

TEST(Traffic, GcReluChargesOfflineTables) {
    MpcFixture fx;
    c2pi::Rng rng(22);
    const std::size_t n = 32;
    std::vector<Ring> values(n);
    for (auto& v : values) v = fx.fmt.encode(rng.uniform(-1.0F, 1.0F));
    auto [s0, s1] = make_shares(values, 23);
    fx.run([&](PartyContext& ctx) { (void)secure_relu(ctx, s0, NonlinearBackend::kGarbledCircuit); },
           [&](PartyContext& ctx) { (void)secure_relu(ctx, s1, NonlinearBackend::kGarbledCircuit); });
    const auto stats = fx.channel.stats();
    EXPECT_GT(stats.phase_bytes(net::Phase::kOffline), 0U);   // garbled tables
    EXPECT_GT(stats.phase_bytes(net::Phase::kOnline), 0U);    // labels + OT
    // Tables dominate: GC offline >> online for ReLU.
    EXPECT_GT(stats.phase_bytes(net::Phase::kOffline), stats.phase_bytes(net::Phase::kOnline));
}

TEST(Traffic, OtReluIsOnlineOnly) {
    MpcFixture fx;
    c2pi::Rng rng(24);
    const std::size_t n = 32;
    std::vector<Ring> values(n);
    for (auto& v : values) v = fx.fmt.encode(rng.uniform(-1.0F, 1.0F));
    auto [s0, s1] = make_shares(values, 25);
    fx.run([&](PartyContext& ctx) { (void)secure_relu(ctx, s0, NonlinearBackend::kOtMillionaire); },
           [&](PartyContext& ctx) { (void)secure_relu(ctx, s1, NonlinearBackend::kOtMillionaire); });
    const auto stats = fx.channel.stats();
    EXPECT_EQ(stats.phase_bytes(net::Phase::kOffline), 0U);
    EXPECT_GT(stats.phase_bytes(net::Phase::kOnline), 0U);
}

}  // namespace
}  // namespace c2pi::mpc
