#include "probe.hpp"

#include <barrier>
#include <exception>
#include <string>

#include "core/rng.hpp"
#include "core/stopwatch.hpp"
#include "fss/compare.hpp"
#include "mpc/linear.hpp"
#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"

namespace perfbench {

namespace {

using c2pi::pi::PlanOp;

int op_slot(PlanOp op) {
    switch (op) {
        case PlanOp::kConv: return 0;
        case PlanOp::kLinear: return 1;
        case PlanOp::kRelu: return 2;
        case PlanOp::kMaxPool: return 3;
        default: return -1;
    }
}

/// One party's view of one probed entry.
struct PartyCall {
    double call_s = 0;
    double wait_s = 0;
};

/// The accounting at a barrier between two probe steps.
struct Mark {
    double at_s = 0;
    c2pi::net::ChannelStats stats;
};

}  // namespace

ProbeResult probe_layers(const c2pi::pi::CompiledModel& server,
                         const c2pi::pi::ClientModel& client,
                         const c2pi::pi::SessionConfig& config, SpanRecorder* recorder) {
    using namespace c2pi;
    SpanRecorder local;
    SpanRecorder& rec = recorder != nullptr ? *recorder : local;
    const std::vector<pi::LayerPlan>& plan = server.plan();
    const mpc::NonlinearBackend nonlinear = pi::resolve_nonlinear(config);
    const bool fss = nonlinear == mpc::NonlinearBackend::kFss;

    ProbeResult result;
    if (fss) result.comparisons = pi::count_fss_comparisons(plan);

    net::DuplexChannel channel;
    std::vector<Mark> marks;
    auto on_step = [&]() noexcept { marks.push_back({rec.now(), channel.stats()}); };
    std::barrier step(2, on_step);
    std::vector<PartyCall> calls[2];
    std::vector<std::size_t> entries;  // plan index of each probed entry

    const crypto::Block128 seed{config.seed, config.seed ^ 0xC2F1};
    const auto body = [&](net::Transport& t) {
        const bool is_server = t.party_id() == mpc::kServer;
        try {
            mpc::PartyContext ctx(t, server.fmt(), is_server ? server.bfv() : client.bfv(), seed);
            ctx.set_gc_cache(is_server ? &server.gc_cache() : &client.gc_cache());
            ctx.set_pipeline(config.pipeline);
            t.set_pipelined_sends(config.pipeline);
            if (!is_server) {
                crypto::ChaCha20Prg key_prg(crypto::Block128{config.seed ^ 0x5E17, 0x11}, 3);
                ctx.set_client_key(client.bfv().keygen(key_prg));
            }
            Rng rng(config.seed + static_cast<std::uint64_t>(t.party_id()));
            step.arrive_and_wait();
            if (fss) {
                // The client starts ingesting only once the whole shipment
                // is queued, so ingest time excludes waiting on the dealer.
                if (is_server) {
                    Stopwatch watch;
                    fss::dealer_replenish(t, ctx.prg(), ctx.fss_pool(), result.comparisons);
                    result.deal_s = watch.seconds();
                }
                step.arrive_and_wait();
                if (!is_server) {
                    Stopwatch watch;
                    fss::client_replenish(t, ctx.fss_pool(), result.comparisons);
                    result.ingest_s = watch.seconds();
                }
                step.arrive_and_wait();
            }
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const pi::LayerPlan& p = plan[i];
                if (op_slot(p.op) < 0) continue;
                if (is_server) entries.push_back(i);
                std::vector<Ring> share(static_cast<std::size_t>(shape_numel(p.in_shape)));
                for (Ring& v : share) v = rng();
                const bool offline = (p.op == PlanOp::kConv || p.op == PlanOp::kLinear) &&
                                     config.backend == pi::PiBackend::kDelphi;
                t.set_phase(offline ? net::Phase::kOffline : net::Phase::kOnline);
                const double wait0 = t.wait_stats().total_seconds();
                Stopwatch watch;
                switch (p.op) {
                    case PlanOp::kConv: {
                        const pi::LayerCache& s = server.layer_caches()[i];
                        const pi::LayerCache& c = client.layer_caches()[i];
                        (void)(is_server ? mpc::he_conv_server(ctx, *s.conv, share)
                                         : mpc::he_conv_client(ctx, c.conv->enc, share));
                        break;
                    }
                    case PlanOp::kLinear: {
                        const pi::LayerCache& s = server.layer_caches()[i];
                        const pi::LayerCache& c = client.layer_caches()[i];
                        (void)(is_server ? mpc::he_matvec_server(ctx, *s.matvec, share)
                                         : mpc::he_matvec_client(ctx, c.matvec->enc, share));
                        break;
                    }
                    case PlanOp::kRelu:
                        (void)mpc::secure_relu(ctx, share, nonlinear);
                        break;
                    default:
                        (void)mpc::secure_maxpool(ctx, mpc::RingTensor(p.in_shape, share),
                                                  p.pool_kernel, p.pool_stride, nonlinear);
                        break;
                }
                t.flush_sends();
                calls[t.party_id()].push_back(
                    {watch.seconds(), t.wait_stats().total_seconds() - wait0});
                step.arrive_and_wait();
            }
        } catch (...) {
            // Leave the barrier so the peer is not left waiting on us.
            step.arrive_and_drop();
            throw;
        }
    };
    (void)net::run_two_party(channel, body, body);

    const std::size_t first = fss ? 2 : 0;  // marks[first] opens the first entry
    if (fss) {
        result.keys_bytes = marks[2].stats.phase_bytes(net::Phase::kPreprocess);
        rec.add({"fss.deal", "fss", kProbeLane, marks[0].at_s, result.deal_s});
        rec.add({"fss.ingest", "fss", kProbeLane, marks[1].at_s, result.ingest_s});
    }
    result.compute_s = result.deal_s + result.ingest_s;
    for (std::size_t k = 0; k < entries.size(); ++k) {
        const Mark& m0 = marks[first + k];
        const Mark& m1 = marks[first + k + 1];
        const int slot = op_slot(plan[entries[k]].op);
        OpCost& op = result.ops[static_cast<std::size_t>(slot)];
        const double wall = m1.at_s - m0.at_s;
        const std::uint64_t bytes = m1.stats.total_bytes() - m0.stats.total_bytes();
        op.seconds += wall;
        op.server_busy_s += calls[0][k].call_s - calls[0][k].wait_s;
        op.bytes += bytes;
        op.flights += m1.stats.total_flights() - m0.stats.total_flights();
        result.compute_s += wall;
        Span span{std::string(kProbeOps[static_cast<std::size_t>(slot)]) + "#" +
                      std::to_string(entries[k]),
                  "mpc", kProbeLane, m0.at_s, wall};
        span.bytes = bytes;
        span.blocked_s = calls[0][k].wait_s;
        rec.add(std::move(span));
    }
    return result;
}

}  // namespace perfbench
