#pragma once

/// \file retry.hpp
/// Client-side retry for session *admission* failures.
///
/// Exactly two failures are automatically retryable, and the rule is
/// enforced in code, not convention: `net::ServerBusy` (typed BUSY
/// rejection) and `net::ConnectFailed` (never connected). Both occur
/// strictly before the client has sent any secret-dependent message, so
/// replaying is unconditionally safe. Everything else — a timeout or
/// disconnect mid-protocol, a codec violation, an artifact swap — may
/// have happened *after* input-dependent traffic, and resuming a
/// half-run MPC transcript is unsound (the dealer randomness is spent;
/// replaying shares under fresh randomness leaks correlations). Those
/// failures propagate: the caller must restart a whole inference,
/// never resume one (docs/PROTOCOL.md §9).
///
/// Backoff is capped-exponential with deterministic jitter (a seeded
/// SplitMix64, not a global RNG): a BUSY storm of identical clients
/// decorrelates, and any schedule is replayable from its seed.

#include <cstdint>
#include <functional>

#include "net/tcp.hpp"

namespace c2pi::pi {

/// Backoff schedule for admission retries: the delay before attempt k
/// is d = min(initial_backoff_ms * 2^(k-2), max_backoff_ms), drawn from
/// [d/2, d] by the seeded jitter stream.
struct RetryPolicy {
    int max_attempts = 5;         ///< total tries, including the first
    int initial_backoff_ms = 50;  ///< delay after the first failure
    int max_backoff_ms = 2'000;   ///< cap for the exponential growth
    std::uint64_t jitter_seed = 1;  ///< deterministic jitter stream

    /// Delay before attempt `attempt` (1-based; attempt 1 has none).
    /// Pure function of (policy, attempt) — replayable.
    [[nodiscard]] int backoff_ms(int attempt) const;

    void validate() const;
};

/// Sleep helper behind the template (keeps <thread> out of this header).
void detail_sleep_ms(int milliseconds);

/// Run `attempt` (connect + bootstrap + inference in one closure) under
/// the policy: on ServerBusy/ConnectFailed sleep backoff_ms and retry,
/// up to max_attempts; the final failure rethrows to the caller. Any
/// other exception propagates immediately — by construction there is no
/// way to auto-retry a mid-protocol failure through this interface,
/// because the closure always restarts from connect.
template <typename Fn>
auto with_admission_retry(const RetryPolicy& policy, Fn&& attempt_fn)
    -> decltype(attempt_fn()) {
    policy.validate();
    for (int attempt = 1;; ++attempt) {
        try {
            return attempt_fn();
        } catch (const net::ServerBusy&) {
            if (attempt >= policy.max_attempts) throw;
        } catch (const net::ConnectFailed&) {
            if (attempt >= policy.max_attempts) throw;
        }
        detail_sleep_ms(policy.backoff_ms(attempt + 1));
    }
}

}  // namespace c2pi::pi
