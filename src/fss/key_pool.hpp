#pragma once

/// \file key_pool.hpp
/// One session party's preprocessed FSS ReLU key material.
///
/// A session deals its whole key schedule once, before layer 0: the
/// dealer generates one record (compare.hpp) per comparison the compiled
/// plan runs (pi::count_fss_comparisons), ships the client halves in the
/// session's single KEYS frame, and each party's pool adopts its own
/// halves. The online nonlinear layers then take records in plan order.
/// Nothing is dealt mid-protocol, so a pool that runs short is a
/// schedule bug and `take` raises a typed c2pi::Error.
///
/// The pool holds the adopted shipment plus a read cursor: `push` moves
/// the container in and `take` hands out views of it, so no record is
/// copied on the way from the KEYS frame (or the dealer's RecordBuffer)
/// to evaluation.
///
/// Mutex-guarded: a session runs its protocol on one thread, but pools
/// live inside PartyContext which the serving pool exercises under TSan,
/// and a cheap uncontended lock keeps the invariant local.

#include <memory>
#include <mutex>
#include <span>

#include "core/error.hpp"
#include "fss/compare.hpp"

namespace c2pi::fss {

class KeyPool {
public:
    /// Comparisons pooled and not yet taken.
    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return (records_.size() - cursor_) / kReluKeyBytes;
    }

    /// Adopt the session's shipment of whole records: the container (a
    /// received KEYS payload or the dealer's RecordBuffer) is moved in,
    /// not copied. A pool adopts one shipment; an empty one is a no-op.
    template <typename Bytes>
    void push(Bytes shipment) {
        require(shipment.size() % kReluKeyBytes == 0,
                "fss::KeyPool: shipment is not a whole number of key records");
        if (shipment.empty()) return;
        auto owner = std::make_shared<const Bytes>(std::move(shipment));
        const std::lock_guard<std::mutex> lock(mutex_);
        require(owner_ == nullptr, "fss::KeyPool: the session's shipment was already adopted");
        records_ = std::span<const std::uint8_t>(owner->data(), owner->size());
        owner_ = std::move(owner);
    }

    /// Take the next n records, contiguously; the view lives as long as
    /// the pool. Throws if fewer are pooled (the session dealt less than
    /// its plan runs).
    [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
        const std::lock_guard<std::mutex> lock(mutex_);
        require((records_.size() - cursor_) / kReluKeyBytes >= n,
                "fss::KeyPool: not enough preprocessed keys");
        const std::span<const std::uint8_t> out = records_.subspan(cursor_, n * kReluKeyBytes);
        cursor_ += out.size();
        return out;
    }

private:
    mutable std::mutex mutex_;
    std::span<const std::uint8_t> records_;  ///< the adopted shipment
    std::shared_ptr<const void> owner_;      ///< keeps `records_` alive
    std::size_t cursor_ = 0;                 ///< bytes of `records_` already taken
};

}  // namespace c2pi::fss
