#include "mpc/nonlinear.hpp"

#include "crypto/circuit.hpp"
#include "crypto/garbling.hpp"
#include "fss/compare.hpp"
#include "fss/key_pool.hpp"

namespace c2pi::mpc {

namespace {

constexpr std::size_t kGcChunk = 512;  ///< GC instances garbled/streamed per flight

/// Garbler (client) side of one batched GC evaluation. Each element feeds
/// `garbler_words` 64-bit garbler inputs (its shares, then neg_r last) and
/// `eval_words` evaluator inputs. Output value goes to the evaluator.
void gc_batch_garbler(PartyContext& ctx, const crypto::Circuit& circuit,
                      const std::vector<std::span<const Ring>>& garbler_values,
                      std::span<const Ring> neg_r) {
    const std::size_t n = neg_r.size();
    const std::size_t g_words = garbler_values.size() + 1;
    require(static_cast<std::size_t>(circuit.num_garbler_inputs) == 64 * g_words,
            "garbler word count mismatch");
    const std::size_t eval_bits = static_cast<std::size_t>(circuit.num_evaluator_inputs);

    for (std::size_t chunk_begin = 0; chunk_begin < n; chunk_begin += kGcChunk) {
        const std::size_t count = std::min(kGcChunk, n - chunk_begin);

        // ---- offline: garble + ship tables and output-decode bits ----
        const auto saved_phase = ctx.transport().phase();
        ctx.transport().set_phase(net::Phase::kOffline);
        std::vector<crypto::Garbling> garblings;
        garblings.reserve(count);
        std::vector<std::uint8_t> tables_payload;
        tables_payload.reserve(count * circuit.and_count() * 32 + count * 8);
        for (std::size_t i = 0; i < count; ++i) {
            garblings.push_back(crypto::garble(circuit, ctx.prg()));
            const auto& g = garblings.back();
            const std::size_t off = tables_payload.size();
            tables_payload.resize(off + g.tables.size() * 16 + (g.output_decode.size() + 7) / 8);
            for (std::size_t k = 0; k < g.tables.size(); ++k)
                g.tables[k].to_bytes(tables_payload.data() + off + 16 * k);
            std::uint8_t* decode = tables_payload.data() + off + g.tables.size() * 16;
            for (std::size_t k = 0; k < g.output_decode.size(); ++k)
                decode[k / 8] |= static_cast<std::uint8_t>((g.output_decode[k] & 1U) << (k % 8));
        }
        ctx.transport().send_bytes(tables_payload);
        ctx.transport().set_phase(saved_phase);

        // ---- online: evaluator labels via OT (server chooses its bits) ----
        std::vector<crypto::Block128> label0(count * eval_bits), label1(count * eval_bits);
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t b = 0; b < eval_bits; ++b) {
                label0[i * eval_bits + b] = garblings[i].evaluator_label(b, false);
                label1[i * eval_bits + b] = garblings[i].evaluator_label(b, true);
            }
        crypto::ot_send_blocks(ctx.transport(), ctx.ot_sender(), label0, label1);

        // ---- online: active garbler-input labels ----
        std::vector<std::uint8_t> label_payload(count * 64 * g_words * 16);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t e = chunk_begin + i;
            std::size_t wire = 0;
            for (std::size_t w = 0; w < g_words; ++w) {
                const Ring value = w + 1 < g_words ? garbler_values[w][e] : neg_r[e];
                for (int b = 0; b < 64; ++b, ++wire) {
                    garblings[i]
                        .garbler_label(wire, ((value >> b) & 1U) != 0)
                        .to_bytes(label_payload.data() + (i * 64 * g_words + wire) * 16);
                }
            }
        }
        ctx.transport().send_bytes(label_payload);
    }
}

/// Evaluator (server) side; returns the decoded 64-bit output per element.
std::vector<Ring> gc_batch_evaluator(PartyContext& ctx, const crypto::Circuit& circuit,
                                     const std::vector<std::span<const Ring>>& eval_values,
                                     std::size_t n) {
    const std::size_t e_words = eval_values.size();
    require(static_cast<std::size_t>(circuit.num_evaluator_inputs) == 64 * e_words,
            "evaluator word count mismatch");
    const std::size_t g_bits = static_cast<std::size_t>(circuit.num_garbler_inputs);
    const std::size_t table_blocks = circuit.and_count() * 2;
    const std::size_t decode_bytes = (circuit.outputs.size() + 7) / 8;

    std::vector<Ring> out(n);
    for (std::size_t chunk_begin = 0; chunk_begin < n; chunk_begin += kGcChunk) {
        const std::size_t count = std::min(kGcChunk, n - chunk_begin);

        // Garbled tables land in the AUX scratch: they must stay live
        // while the label transfer below refills the primary scratch.
        const auto saved_phase = ctx.transport().phase();
        ctx.transport().set_phase(net::Phase::kOffline);
        std::vector<std::uint8_t>& tables_payload = ctx.aux_recv_scratch();
        ctx.transport().recv_bytes_into(tables_payload);
        ctx.transport().set_phase(saved_phase);
        require(tables_payload.size() == count * (table_blocks * 16 + decode_bytes),
                "GC table payload size mismatch");

        // Evaluator label OT: choice bits are this party's share bits.
        std::vector<std::uint8_t> choices(count * 64 * e_words);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t e = chunk_begin + i;
            std::size_t wire = 0;
            for (std::size_t w = 0; w < e_words; ++w) {
                const Ring value = eval_values[w][e];
                for (int b = 0; b < 64; ++b, ++wire)
                    choices[i * 64 * e_words + wire] =
                        static_cast<std::uint8_t>((value >> b) & 1U);
            }
        }
        const auto eval_labels = crypto::ot_recv_blocks(ctx.transport(), ctx.ot_receiver(), choices);
        std::vector<std::uint8_t>& label_payload = ctx.recv_scratch();
        ctx.transport().recv_bytes_into(label_payload);
        require(label_payload.size() == count * g_bits * 16, "GC garbler label size mismatch");

        for (std::size_t i = 0; i < count; ++i) {
            const std::uint8_t* base = tables_payload.data() + i * (table_blocks * 16 + decode_bytes);
            std::vector<crypto::Block128> tables(table_blocks);
            for (std::size_t k = 0; k < table_blocks; ++k)
                tables[k] = crypto::Block128::from_bytes(base + 16 * k);
            std::vector<std::uint8_t> decode(circuit.outputs.size());
            const std::uint8_t* dec_base = base + table_blocks * 16;
            for (std::size_t k = 0; k < decode.size(); ++k)
                decode[k] = (dec_base[k / 8] >> (k % 8)) & 1U;

            std::vector<crypto::Block128> g_labels(g_bits);
            for (std::size_t k = 0; k < g_bits; ++k)
                g_labels[k] =
                    crypto::Block128::from_bytes(label_payload.data() + (i * g_bits + k) * 16);
            const std::span<const crypto::Block128> e_labels(
                eval_labels.data() + i * 64 * e_words, 64 * e_words);

            const auto bits = crypto::evaluate_garbled(circuit, tables, g_labels, e_labels, decode);
            out[chunk_begin + i] = crypto::from_bits(bits);
        }
    }
    return out;
}

std::vector<Ring> pick_fresh(PartyContext& ctx, std::span<const Ring> pinned, std::size_t n) {
    std::vector<Ring> fresh(n);
    if (pinned.empty()) {
        for (auto& v : fresh) v = ctx.prg().next_u64();
    } else {
        require(pinned.size() == n, "client_fresh_share size mismatch");
        std::copy(pinned.begin(), pinned.end(), fresh.begin());
    }
    return fresh;
}

std::vector<Ring> relu_shares_gc(PartyContext& ctx, std::span<const Ring> y_share,
                                 std::span<const Ring> client_fresh_share) {
    const std::size_t n = y_share.size();
    static const crypto::Circuit circuit = crypto::build_relu_circuit(64);
    if (ctx.is_server()) {
        return gc_batch_evaluator(ctx, circuit, {y_share}, n);
    }
    const auto fresh = pick_fresh(ctx, client_fresh_share, n);
    std::vector<Ring> neg_r(n);
    for (std::size_t i = 0; i < n; ++i) neg_r[i] = Ring{0} - fresh[i];
    gc_batch_garbler(ctx, circuit, {y_share}, neg_r);
    return fresh;
}

/// FSS backend: drain preprocessed key material (replenishing any
/// deficit first — both parties compute the identical deficit from their
/// equal-sized pools, so the dealer/recv calls pair up), reconstruct the
/// masked values in one round, then evaluate locally on the session's
/// thread pool.
std::vector<Ring> relu_shares_fss(PartyContext& ctx, std::span<const Ring> y_share) {
    const std::size_t n = y_share.size();
    auto& pool = ctx.fss_pool();
    const core::ThreadPool* threads = ctx.bfv().thread_pool();
    if (pool.size() < n) {
        const std::size_t deficit = n - pool.size();
        if (ctx.is_server())
            fss::dealer_replenish(ctx.transport(), ctx.prg(), pool, deficit, threads);
        else
            fss::client_replenish(ctx.transport(), pool, deficit);
    }
    const auto keys = pool.take(n);
    std::vector<Ring> masked(n);
    for (std::size_t i = 0; i < n; ++i) masked[i] = y_share[i] + fss::relu_mask_share(keys, i);
    const auto z = reveal_shares(ctx, masked);
    return fss::eval_relu_batch(keys, ctx.party(), z, threads);
}

/// max(a, b) = a + ReLU(b - a), elementwise over shares (FSS flavour of
/// millionaire.hpp's max_pairwise_ot).
std::vector<Ring> max_pairwise_fss(PartyContext& ctx, std::span<const Ring> a,
                                   std::span<const Ring> b) {
    require(a.size() == b.size(), "max_pairwise_fss size mismatch");
    std::vector<Ring> diff(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) diff[i] = b[i] - a[i];
    auto out = relu_shares_fss(ctx, diff);
    for (std::size_t i = 0; i < a.size(); ++i) out[i] += a[i];
    return out;
}

}  // namespace

std::vector<Ring> secure_relu(PartyContext& ctx, std::span<const Ring> y_share,
                              NonlinearBackend backend,
                              std::span<const Ring> client_fresh_share) {
    if (backend == NonlinearBackend::kGarbledCircuit)
        return relu_shares_gc(ctx, y_share, client_fresh_share);
    if (backend == NonlinearBackend::kFss) return relu_shares_fss(ctx, y_share);
    return relu_shares_ot(ctx, y_share);
}

RingTensor secure_maxpool(PartyContext& ctx, const RingTensor& x_share, std::int64_t kernel,
                          std::int64_t stride, NonlinearBackend backend,
                          std::span<const Ring> client_fresh_share) {
    require(x_share.shape.size() == 3, "secure_maxpool expects [C,H,W] shares");
    const std::int64_t c = x_share.shape[0], h = x_share.shape[1], w = x_share.shape[2];
    const std::int64_t oh = (h - kernel) / stride + 1;
    const std::int64_t ow = (w - kernel) / stride + 1;
    const std::size_t windows = static_cast<std::size_t>(c * oh * ow);
    const std::size_t k2 = static_cast<std::size_t>(kernel * kernel);

    // Gather window elements: lanes[j][win] = share of j-th element of win.
    std::vector<std::vector<Ring>> lanes(k2, std::vector<Ring>(windows));
    std::size_t win = 0;
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox, ++win) {
                std::size_t j = 0;
                for (std::int64_t ky = 0; ky < kernel; ++ky)
                    for (std::int64_t kx = 0; kx < kernel; ++kx, ++j) {
                        const std::int64_t iy = oy * stride + ky;
                        const std::int64_t ix = ox * stride + kx;
                        lanes[j][win] =
                            x_share.data[static_cast<std::size_t>((ch * h + iy) * w + ix)];
                    }
            }

    std::vector<Ring> result;
    if (backend == NonlinearBackend::kGarbledCircuit) {
        // The circuit cache is scoped to the session's compiled model
        // (mpc/gc_cache.hpp) rather than process-wide, so concurrent
        // sessions of different models never contend on its lock.
        const crypto::Circuit& circuit = ctx.gc_cache().max_circuit(static_cast<int>(k2));
        std::vector<std::span<const Ring>> spans;
        spans.reserve(k2);
        for (const auto& lane : lanes) spans.emplace_back(lane);
        if (ctx.is_server()) {
            result = gc_batch_evaluator(ctx, circuit, spans, windows);
        } else {
            const auto fresh = pick_fresh(ctx, client_fresh_share, windows);
            std::vector<Ring> neg_r(windows);
            for (std::size_t i = 0; i < windows; ++i) neg_r[i] = Ring{0} - fresh[i];
            gc_batch_garbler(ctx, circuit, spans, neg_r);
            result = fresh;
        }
    } else {
        // OT and FSS backends: binary tournament of batched pairwise max.
        std::vector<std::vector<Ring>> round = std::move(lanes);
        while (round.size() > 1) {
            std::vector<std::vector<Ring>> next;
            for (std::size_t i = 0; i + 1 < round.size(); i += 2)
                next.push_back(backend == NonlinearBackend::kFss
                                   ? max_pairwise_fss(ctx, round[i], round[i + 1])
                                   : max_pairwise_ot(ctx, round[i], round[i + 1]));
            if (round.size() % 2 == 1) next.push_back(std::move(round.back()));
            round = std::move(next);
        }
        result = std::move(round[0]);
    }
    return RingTensor({c, oh, ow}, std::move(result));
}

std::vector<Ring> reveal_shares(PartyContext& ctx, std::span<const Ring> share) {
    std::vector<Ring> theirs;
    if (ctx.is_server()) {
        ctx.transport().send_u64s(share);
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
    } else {
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
        ctx.transport().send_u64s(share);
    }
    require(theirs.size() == share.size(), "reveal size mismatch");
    std::vector<Ring> out(share.size());
    for (std::size_t i = 0; i < share.size(); ++i) out[i] = share[i] + theirs[i];
    return out;
}

std::vector<Ring> reveal_shares_to(PartyContext& ctx, std::span<const Ring> share, int to_party) {
    if (ctx.party() == to_party) {
        std::vector<Ring> theirs;
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
        require(theirs.size() == share.size(), "reveal size mismatch");
        std::vector<Ring> out(share.size());
        for (std::size_t i = 0; i < share.size(); ++i) out[i] = share[i] + theirs[i];
        return out;
    }
    ctx.transport().send_u64s(share);
    return {};
}

}  // namespace c2pi::mpc
