#pragma once

/// \file tail_batch.hpp
/// Cross-request coalescing of the revealed clear tail.
///
/// C2PI's crypto-clear boundary makes the server-side tail plain float
/// compute, which is trivially batchable across independent client
/// connections (`pi::ServingPool`). Every server session deposits its
/// revealed boundary activation and blocks; one depositor runs the tail
/// for the whole group as a single `CompiledModel::run_clear_tail` pass,
/// and the rest pick up their row. Batching changes *where* the tail
/// executes, never its result: the pass is row-independent, so
/// per-request logits are bit-identical to unbatched serving
/// (tests/serving_pool_test.cpp).
///
/// A group closes when `max_group` requests arrived or `window` elapsed
/// since the group's first arrival: concurrent TCP clients reach the
/// boundary at unpredictable times, so the window bounds the latency a
/// lone request pays for the chance to batch, and `max_group` (the
/// serving pool's worker count, an upper bound on concurrent sessions)
/// closes a full group with zero extra wait.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "pi/compiled_model.hpp"

namespace c2pi::pi {

class TailBatcher {
public:
    TailBatcher(const CompiledModel& model, std::size_t max_group,
                std::chrono::milliseconds window);
    ~TailBatcher() = default;

    TailBatcher(const TailBatcher&) = delete;
    TailBatcher& operator=(const TailBatcher&) = delete;

    /// Deposit one revealed boundary activation [1, ...boundary shape],
    /// block until this request's group has run its batched pass, and
    /// return this request's logits row [1, classes]. Thread-safe; meant
    /// to be called from `ServerSession::run`'s TailFn. Rethrows the
    /// pass's exception to every member of a failed group.
    [[nodiscard]] Tensor run(const Tensor& activation);

    /// Batched passes executed so far.
    [[nodiscard]] std::uint64_t batches() const;
    /// Requests that went through a batched pass so far.
    [[nodiscard]] std::uint64_t requests() const;

private:
    /// One rendezvous group: the deposits that will share a single
    /// run_clear_tail pass. Held by shared_ptr because a closed group
    /// computes its pass while new arrivals already form the next group.
    struct Group {
        Tensor activations;  ///< [capacity, ...boundary shape], filled to `arrived`
        Tensor logits;       ///< [arrived, classes] once done
        std::size_t arrived = 0;
        bool closed = false;  ///< no further deposits join this group
        bool done = false;    ///< logits ready
        std::exception_ptr error;
        std::chrono::steady_clock::time_point deadline;
    };

    /// Close `group` (detaching it as the current group) and run its
    /// batched pass. Called with `lock` held; the pass itself runs
    /// unlocked so new arrivals can form the next group meanwhile.
    void close_and_run(const std::shared_ptr<Group>& group, std::unique_lock<std::mutex>& lock);

    const CompiledModel* model_;
    const std::size_t target_;  ///< group size that closes with zero wait
    const std::chrono::milliseconds window_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::shared_ptr<Group> current_;  ///< open group, or null
    std::uint64_t batches_ = 0;
    std::uint64_t requests_ = 0;
};

}  // namespace c2pi::pi
