#include "mpc/linear.hpp"

#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "core/thread_pool.hpp"

namespace c2pi::mpc {

namespace {

/// Wire format: [limbs u32][flags u32][seed 16B] then c0 limbs, then c1
/// limbs unless seed-compressed. Flag bit 0: seed-compressed. The payload
/// is staged in the session's send scratch buffer — one allocation per
/// session, not per ciphertext.
void send_ciphertext(PartyContext& ctx, const he::Ciphertext& ct) {
    const he::BfvContext& bfv = ctx.bfv();
    require(!ct.ntt_form, "ciphertexts travel in coefficient form");
    const std::size_t n = bfv.n();
    const int limbs = ct.active_limbs();
    const std::size_t c1_words = ct.seed_compressed ? 0 : static_cast<std::size_t>(limbs) * n;
    std::vector<std::uint8_t>& payload = ctx.send_scratch();
    payload.resize(24 + (static_cast<std::size_t>(limbs) * n + c1_words) * 8);
    std::uint32_t header[2] = {static_cast<std::uint32_t>(limbs),
                               static_cast<std::uint32_t>(ct.seed_compressed ? 1 : 0)};
    std::memcpy(payload.data(), header, 8);
    ct.seed.to_bytes(payload.data() + 8);
    std::size_t off = 24;
    for (int i = 0; i < limbs; ++i) {
        std::memcpy(payload.data() + off, ct.c0.limbs[static_cast<std::size_t>(i)].data(), n * 8);
        off += n * 8;
    }
    if (!ct.seed_compressed) {
        for (int i = 0; i < limbs; ++i) {
            std::memcpy(payload.data() + off, ct.c1.limbs[static_cast<std::size_t>(i)].data(), n * 8);
            off += n * 8;
        }
    }
    ctx.transport().send_bytes(payload);
}

[[nodiscard]] he::Ciphertext recv_ciphertext(PartyContext& ctx) {
    const he::BfvContext& bfv = ctx.bfv();
    std::vector<std::uint8_t>& payload = ctx.recv_scratch();
    ctx.transport().recv_bytes_into(payload);
    require(payload.size() >= 24, "ciphertext payload too small");
    std::uint32_t header[2];
    std::memcpy(header, payload.data(), 8);
    const int limbs = static_cast<int>(header[0]);
    const bool seeded = (header[1] & 1U) != 0;
    const std::size_t n = bfv.n();

    he::Ciphertext ct;
    ct.seed = crypto::Block128::from_bytes(payload.data() + 8);
    ct.seed_compressed = seeded;
    ct.c0.limbs.assign(static_cast<std::size_t>(limbs), std::vector<he::u64>(n));
    std::size_t off = 24;
    for (int i = 0; i < limbs; ++i) {
        std::memcpy(ct.c0.limbs[static_cast<std::size_t>(i)].data(), payload.data() + off, n * 8);
        off += n * 8;
    }
    if (seeded) {
        // Re-derive c1 from the seed exactly as encrypt() sampled it:
        // uniform in the NTT domain. It stays there — the server's next
        // step is to_ntt, which now only transforms c0.
        ct.c1 = bfv.expand_seed_poly_ntt(ct.seed, limbs);
    } else {
        ct.c1.limbs.assign(static_cast<std::size_t>(limbs), std::vector<he::u64>(n));
        for (int i = 0; i < limbs; ++i) {
            std::memcpy(ct.c1.limbs[static_cast<std::size_t>(i)].data(), payload.data() + off, n * 8);
            off += n * 8;
        }
    }
    require(off == payload.size(), "ciphertext payload size mismatch");
    return ct;
}

/// Channel-order handoff between the compute side (one thread driving
/// the layer's parallel_for) and the protocol thread shipping responses:
/// slot i is published the moment its ciphertext is finalized; take(i)
/// blocks until then. A compute-side exception is parked and rethrown
/// from the next take() so the protocol thread never deadlocks on a slot
/// that will never fill.
class ChunkStream {
public:
    explicit ChunkStream(std::size_t count) : slots_(count), ready_(count, 0) {}

    void put(std::size_t i, he::Ciphertext ct) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            slots_[i] = std::move(ct);
            ready_[i] = 1;
        }
        cv_.notify_all();
    }
    void fail(std::exception_ptr error) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            error_ = std::move(error);
        }
        cv_.notify_all();
    }
    [[nodiscard]] he::Ciphertext take(std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return ready_[i] != 0 || error_ != nullptr; });
        if (ready_[i] == 0) std::rethrow_exception(error_);
        return std::move(slots_[i]);
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<he::Ciphertext> slots_;
    std::vector<char> ready_;
    std::exception_ptr error_;
};

/// Compute `count` response ciphertexts and ship them in index order.
/// Synchronous mode (ctx.pipeline() off) keeps the historical barrier:
/// one parallel_for over all indices, then all sends. Pipelined mode
/// overlaps the two: a producer thread drives the SAME parallel_for and
/// publishes each chunk as it finishes, while the protocol thread ships
/// chunk o the moment it is ready — later chunks are still in the NTT.
/// Send order and per-message bytes are identical in both modes, so the
/// wire transcript (and ChannelStats) never changes; parallel_for's
/// rethrow semantics guarantee every index either publishes or the
/// producer fails the stream after the loop unwinds.
template <typename ComputeFn>
void emit_responses(PartyContext& ctx, std::int64_t count, ComputeFn&& compute) {
    const core::ThreadPool* pool = ctx.bfv().thread_pool();
    if (!ctx.pipeline()) {
        std::vector<he::Ciphertext> responses(static_cast<std::size_t>(count));
        core::parallel_for(pool, 0, count, [&](std::int64_t o) {
            responses[static_cast<std::size_t>(o)] = compute(o);
        });
        for (std::int64_t o = 0; o < count; ++o)
            send_ciphertext(ctx, responses[static_cast<std::size_t>(o)]);
        return;
    }
    ChunkStream stream(static_cast<std::size_t>(count));
    std::thread producer([&] {
        try {
            core::parallel_for(pool, 0, count, [&](std::int64_t o) {
                stream.put(static_cast<std::size_t>(o), compute(o));
            });
        } catch (...) {
            stream.fail(std::current_exception());
        }
    });
    try {
        for (std::int64_t o = 0; o < count; ++o)
            send_ciphertext(ctx, stream.take(static_cast<std::size_t>(o)));
    } catch (...) {
        producer.join();  // compute references stack state; outlive it
        throw;
    }
    producer.join();
}

}  // namespace

ConvLayerCache::ConvLayerCache(const he::BfvContext& bfv, const he::ConvGeometry& geo,
                               std::span<const Ring> weights, std::span<const Ring> bias2f,
                               bool precompute_weights)
    : enc(bfv, geo), weights(weights), bias2f(bias2f) {
    if (precompute_weights) {
        const std::int64_t groups = enc.num_groups();
        w_ntt.resize(static_cast<std::size_t>(geo.out_channels * groups));
        core::parallel_for(bfv.thread_pool(), 0, geo.out_channels * groups, [&](std::int64_t idx) {
            const std::int64_t o = idx / groups;
            const std::int64_t g = idx % groups;
            w_ntt[static_cast<std::size_t>(idx)] =
                bfv.to_plain_ntt(enc.encode_weight(weights, g, o));
        });
    }
    scatter_idx.reserve(static_cast<std::size_t>(geo.out_h() * geo.out_w()));
    for (std::int64_t oy = 0; oy < geo.out_h(); ++oy)
        for (std::int64_t ox = 0; ox < geo.out_w(); ++ox)
            scatter_idx.push_back(enc.output_coeff_index(oy, ox));
}

MatVecLayerCache::MatVecLayerCache(const he::BfvContext& bfv, std::int64_t in, std::int64_t out,
                                   std::span<const Ring> weights, std::span<const Ring> bias2f,
                                   bool precompute_weights)
    : enc(bfv, in, out), in(in), out(out), weights(weights), bias2f(bias2f) {
    if (precompute_weights) {
        w_ntt.resize(static_cast<std::size_t>(enc.num_blocks()));
        core::parallel_for(bfv.thread_pool(), 0, enc.num_blocks(), [&](std::int64_t b) {
            w_ntt[static_cast<std::size_t>(b)] =
                bfv.to_plain_ntt(enc.encode_weight_block(weights, b));
        });
    }
    scatter_idx.resize(static_cast<std::size_t>(enc.num_blocks()));
    for (std::int64_t b = 0; b < enc.num_blocks(); ++b) {
        const std::int64_t rows = std::min(enc.outs_per_block(), out - b * enc.outs_per_block());
        for (std::int64_t r = 0; r < rows; ++r)
            scatter_idx[static_cast<std::size_t>(b)].push_back(enc.output_coeff_index(r));
    }
}

std::vector<Ring> he_conv_server(PartyContext& ctx, const ConvLayerCache& cache,
                                 std::span<const Ring> x_share) {
    require(!cache.w_ntt.empty(),
            "he_conv_server needs a cache with precomputed weights (client-only artifact?)");
    const he::BfvContext& bfv = ctx.bfv();
    const he::ConvEncoder& enc = cache.enc;
    const he::ConvGeometry& geo = enc.geometry();
    const std::int64_t out_pixels = geo.out_h() * geo.out_w();

    // Receive the client's encrypted input groups.
    std::vector<he::Ciphertext> input_cts;
    input_cts.reserve(static_cast<std::size_t>(enc.num_groups()));
    for (std::int64_t g = 0; g < enc.num_groups(); ++g) {
        he::Ciphertext ct = recv_ciphertext(ctx);
        bfv.to_ntt(ct);
        input_cts.push_back(std::move(ct));
    }

    // Plain contribution of the server's own share (exact ring conv).
    const auto plain_part = ring_conv2d(geo, x_share, cache.weights);

    // Fresh mask r per channel: client will end with conv(x_c) - r; the
    // server's share is conv(x_s) + bias + r. Masks are drawn up front in
    // channel order so the share-PRG stream never depends on the
    // parallel schedule below (next_mask_draw serves the session layer's
    // prefetched stash first — same draw sequence either way).
    std::vector<Ring> out_share(static_cast<std::size_t>(geo.out_channels * out_pixels));
    std::vector<std::vector<Ring>> masks(static_cast<std::size_t>(geo.out_channels));
    for (std::int64_t o = 0; o < geo.out_channels; ++o) {
        std::vector<Ring>& mask = masks[static_cast<std::size_t>(o)];
        mask.resize(static_cast<std::size_t>(out_pixels));
        for (std::int64_t i = 0; i < out_pixels; ++i) {
            const Ring r = ctx.next_mask_draw();
            mask[static_cast<std::size_t>(i)] = Ring{0} - r;
            Ring server_val = plain_part[static_cast<std::size_t>(o * out_pixels + i)] + r;
            if (!cache.bias2f.empty()) server_val += cache.bias2f[static_cast<std::size_t>(o)];
            out_share[static_cast<std::size_t>(o * out_pixels + i)] = server_val;
        }
    }

    // Per-channel responses in parallel, shipped in channel order (the
    // wire transcript is identical to the serial loop); pipelined
    // sessions stream each channel the moment it finalizes.
    emit_responses(ctx, geo.out_channels, [&](std::int64_t o) {
        he::Ciphertext acc;
        bfv.multiply_plain(input_cts[0], cache.weight_ntt(0, o), acc);
        for (std::int64_t g = 1; g < enc.num_groups(); ++g) {
            bfv.multiply_plain_accumulate(input_cts[static_cast<std::size_t>(g)],
                                          cache.weight_ntt(g, o), acc);
        }
        bfv.from_ntt(acc);
        bfv.add_plain_at(acc, cache.scatter_idx, masks[static_cast<std::size_t>(o)]);
        bfv.mod_switch_to_two_limbs(acc);
        return acc;
    });
    return out_share;
}

std::vector<Ring> he_conv_client(PartyContext& ctx, const he::ConvEncoder& enc,
                                 std::span<const Ring> x_share) {
    const he::BfvContext& bfv = ctx.bfv();
    const he::ConvGeometry& geo = enc.geometry();
    const std::int64_t out_pixels = geo.out_h() * geo.out_w();

    for (std::int64_t g = 0; g < enc.num_groups(); ++g) {
        const he::Ciphertext ct =
            bfv.encrypt(enc.encode_input_group(x_share, g), ctx.client_key(), ctx.share_prg());
        send_ciphertext(ctx, ct);
    }

    std::vector<Ring> out_share(static_cast<std::size_t>(geo.out_channels * out_pixels));
    for (std::int64_t o = 0; o < geo.out_channels; ++o) {
        const he::Ciphertext response = recv_ciphertext(ctx);
        const auto poly = bfv.decrypt(response, ctx.client_key());
        const auto vals = enc.gather_outputs(poly);
        std::copy(vals.begin(), vals.end(),
                  out_share.begin() + static_cast<std::ptrdiff_t>(o * out_pixels));
    }
    return out_share;
}

std::vector<Ring> he_matvec_server(PartyContext& ctx, const MatVecLayerCache& cache,
                                   std::span<const Ring> x_share) {
    require(!cache.w_ntt.empty(),
            "he_matvec_server needs a cache with precomputed weights (client-only artifact?)");
    const he::BfvContext& bfv = ctx.bfv();
    const he::MatVecEncoder& enc = cache.enc;
    const std::int64_t in = cache.in, out = cache.out;

    he::Ciphertext input_ct = recv_ciphertext(ctx);
    bfv.to_ntt(input_ct);

    const auto plain_part = ring_matvec(cache.weights, x_share, in, out);
    std::vector<Ring> out_share(static_cast<std::size_t>(out));

    // Block masks in block order first (PRG determinism — next_mask_draw
    // serves any session-layer prefetch stash in the same order), then
    // the block responses in parallel, sent in block order.
    std::vector<std::vector<Ring>> masks(static_cast<std::size_t>(enc.num_blocks()));
    for (std::int64_t b = 0; b < enc.num_blocks(); ++b) {
        const std::int64_t rows = std::min(enc.outs_per_block(), out - b * enc.outs_per_block());
        std::vector<Ring>& mask = masks[static_cast<std::size_t>(b)];
        mask.resize(static_cast<std::size_t>(rows));
        for (std::int64_t r = 0; r < rows; ++r) {
            const std::int64_t row = b * enc.outs_per_block() + r;
            const Ring rv = ctx.next_mask_draw();
            mask[static_cast<std::size_t>(r)] = Ring{0} - rv;
            Ring server_val = plain_part[static_cast<std::size_t>(row)] + rv;
            if (!cache.bias2f.empty()) server_val += cache.bias2f[static_cast<std::size_t>(row)];
            out_share[static_cast<std::size_t>(row)] = server_val;
        }
    }

    emit_responses(ctx, enc.num_blocks(), [&](std::int64_t b) {
        he::Ciphertext acc;
        bfv.multiply_plain(input_ct, cache.w_ntt[static_cast<std::size_t>(b)], acc);
        bfv.from_ntt(acc);
        bfv.add_plain_at(acc, cache.scatter_idx[static_cast<std::size_t>(b)],
                         masks[static_cast<std::size_t>(b)]);
        bfv.mod_switch_to_two_limbs(acc);
        return acc;
    });
    return out_share;
}

std::vector<Ring> he_matvec_client(PartyContext& ctx, const he::MatVecEncoder& enc,
                                   std::span<const Ring> x_share) {
    const he::BfvContext& bfv = ctx.bfv();

    const he::Ciphertext ct =
        bfv.encrypt(enc.encode_input(x_share), ctx.client_key(), ctx.share_prg());
    send_ciphertext(ctx, ct);

    std::vector<Ring> out_share(static_cast<std::size_t>(enc.out_features()));
    for (std::int64_t b = 0; b < enc.num_blocks(); ++b) {
        const he::Ciphertext response = recv_ciphertext(ctx);
        const auto poly = bfv.decrypt(response, ctx.client_key());
        const auto vals = enc.gather_outputs(poly, b);
        std::copy(vals.begin(), vals.end(),
                  out_share.begin() + static_cast<std::ptrdiff_t>(b * enc.outs_per_block()));
    }
    return out_share;
}

}  // namespace c2pi::mpc
