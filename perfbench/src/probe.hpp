#pragma once

/// \file probe.hpp
/// Layer probe: replays every plan entry of a compiled artifact through
/// its public `mpc` call over an in-process party pair, one entry at a
/// time, and measures each entry's wall time, the server's busy time
/// (call time minus time blocked on the client), bytes and flights. With
/// the FSS backend it first times the key dealing and ingest (`fss`) for
/// the whole plan, exactly as a session does before layer 0.

#include <array>
#include <cstdint>

#include "pi/session.hpp"
#include "trace.hpp"

namespace perfbench {

/// Op kinds the probe times; plan entries of other kinds (local pooling,
/// residual adds, flatten) cost no protocol work.
inline constexpr std::array<const char*, 4> kProbeOps = {"conv", "linear", "relu", "maxpool"};

struct OpCost {
    double seconds = 0;        ///< summed per-entry wall time
    double server_busy_s = 0;  ///< summed server call time minus its waits
    std::uint64_t bytes = 0;
    std::uint64_t flights = 0;
};

struct ProbeResult {
    std::array<OpCost, kProbeOps.size()> ops{};  ///< indexed like kProbeOps
    std::size_t comparisons = 0;  ///< FSS comparisons dealt (0 unless the backend is FSS)
    double deal_s = 0;            ///< fss::dealer_replenish
    double ingest_s = 0;          ///< fss::client_replenish
    std::uint64_t keys_bytes = 0;
    /// Summed entry walls plus dealing and ingest: the in-process compute
    /// of one inference, as the cost model's compute term.
    double compute_s = 0;
};

/// Replay `server`'s plan with `client`'s encoders under `config`'s
/// nonlinear backend. Each entry becomes a span on the probe lane of
/// `recorder` (if given).
[[nodiscard]] ProbeResult probe_layers(const c2pi::pi::CompiledModel& server,
                                       const c2pi::pi::ClientModel& client,
                                       const c2pi::pi::SessionConfig& config,
                                       SpanRecorder* recorder);

}  // namespace perfbench
