#pragma once

/// \file runtime.hpp
/// Two-party protocol runtime: runs server and client bodies on two
/// threads over a DuplexChannel and reports wall time + traffic.

#include <functional>

#include "net/channel.hpp"

namespace c2pi::net {

struct RunResult {
    ChannelStats stats;
    double wall_seconds = 0.0;           ///< total joint execution time
};

/// Execute the two party bodies concurrently. `server` runs as party 0,
/// `client` as party 1. A party that throws closes its peer's queue, so a
/// peer blocked on recv raises PeerClosed instead of hanging; the
/// exception of the party that failed FIRST (the root cause) is rethrown
/// on the caller thread.
RunResult run_two_party(DuplexChannel& channel,
                        const std::function<void(Transport&)>& server,
                        const std::function<void(Transport&)>& client);

}  // namespace c2pi::net
