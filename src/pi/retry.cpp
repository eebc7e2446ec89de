#include "pi/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace c2pi::pi {

namespace {
constexpr double kBackoffMultiplier = 2.0;  ///< growth factor per attempt
/// Fraction of the computed delay replaced by jitter: the delay is drawn
/// from [(1 - kJitter) * d, d]. Decorrelates a retry storm.
constexpr double kJitter = 0.5;
}  // namespace

void RetryPolicy::validate() const {
    require(max_attempts >= 1, "RetryPolicy: max_attempts must be >= 1");
    require(initial_backoff_ms >= 0, "RetryPolicy: initial_backoff_ms must be >= 0");
    require(max_backoff_ms >= initial_backoff_ms,
            "RetryPolicy: max_backoff_ms must be >= initial_backoff_ms");
}

int RetryPolicy::backoff_ms(int attempt) const {
    if (attempt <= 1) return 0;
    const double grown =
        static_cast<double>(initial_backoff_ms) * std::pow(kBackoffMultiplier, attempt - 2);
    const double capped = std::min(grown, static_cast<double>(max_backoff_ms));
    // SplitMix64 over (seed, attempt): deterministic, replayable, and
    // different seeds decorrelate a storm of identical clients.
    std::uint64_t s = jitter_seed + static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL;
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
    s ^= s >> 31;
    const double unit = static_cast<double>(s >> 11) * 0x1.0p-53;  // [0, 1)
    return static_cast<int>(capped * (1.0 - kJitter * unit));
}

void detail_sleep_ms(int milliseconds) {
    if (milliseconds > 0) std::this_thread::sleep_for(std::chrono::milliseconds(milliseconds));
}

}  // namespace c2pi::pi
