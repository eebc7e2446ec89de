#pragma once

/// \file key_pool.hpp
/// Buffer of preprocessed FSS ReLU key material, one per session party.
///
/// The preprocessing phase fills the pool with one record
/// (compare.hpp) per upcoming comparison (sized from the compiled layer
/// plan); the online nonlinear layers drain it FIFO. Both parties' pools
/// stay equal-sized by construction — prefill counts derive from the
/// shared plan and every secure_relu consumes and replenishes
/// symmetrically — so the dealer never has to signal "which key is next".
///
/// The pool holds whole shipped batches plus a read cursor: `push` moves
/// a batch in and `take` hands out a view of the next records, so no
/// record is copied on the way from the KEYS frame to evaluation.
///
/// Mutex-guarded: a session runs its protocol on one thread, but pools
/// live inside PartyContext which the serving pool exercises under TSan,
/// and a cheap uncontended lock keeps the invariant local.

#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "fss/compare.hpp"

namespace c2pi::fss {

class KeyPool {
public:
    /// Comparisons pooled and not yet taken.
    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    /// Append a batch of whole records. The container (a received KEYS
    /// payload or the dealer's RecordBuffer) is moved in, not copied.
    template <typename Bytes>
    void push(Bytes batch) {
        require(batch.size() % kReluKeyBytes == 0,
                "fss::KeyPool: batch is not a whole number of key records");
        if (batch.empty()) return;
        auto owner = std::make_shared<const Bytes>(std::move(batch));
        const Batch b{std::span<const std::uint8_t>(owner->data(), owner->size()), owner};
        const std::lock_guard<std::mutex> lock(mutex_);
        size_ += b.bytes.size() / kReluKeyBytes;
        batches_.push_back(b);
    }

    /// Remove the n oldest records and return them contiguously. The view
    /// stays valid until the next push or take. Throws if fewer are pooled
    /// (the caller is responsible for replenishing first).
    [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
        const std::lock_guard<std::mutex> lock(mutex_);
        require(size_ >= n, "fss::KeyPool: not enough preprocessed keys");
        if (n == 0) return {};
        // Batches emptied by earlier takes go only now, once their views
        // have expired.
        while (cursor_ == batches_.front().bytes.size()) {
            batches_.pop_front();
            cursor_ = 0;
        }
        const std::size_t bytes = n * kReluKeyBytes;
        if (batches_.front().bytes.size() - cursor_ < bytes) {
            // The request straddles batches (a deficit topped up by a second
            // shipment): merge the untaken records into one batch.
            auto merged = std::make_shared<std::vector<std::uint8_t>>(
                batches_.front().bytes.begin() + static_cast<std::ptrdiff_t>(cursor_),
                batches_.front().bytes.end());
            batches_.pop_front();
            while (merged->size() < bytes) {
                merged->insert(merged->end(), batches_.front().bytes.begin(),
                               batches_.front().bytes.end());
                batches_.pop_front();
            }
            batches_.push_front({std::span<const std::uint8_t>(*merged), merged});
            cursor_ = 0;
        }
        const std::span<const std::uint8_t> out = batches_.front().bytes.subspan(cursor_, bytes);
        cursor_ += bytes;
        size_ -= n;
        return out;
    }

private:
    struct Batch {
        std::span<const std::uint8_t> bytes;
        std::shared_ptr<const void> owner;  ///< keeps `bytes` alive
    };

    mutable std::mutex mutex_;
    std::deque<Batch> batches_;
    std::size_t cursor_ = 0;  ///< bytes of batches_.front() already taken
    std::size_t size_ = 0;    ///< records not yet taken
};

}  // namespace c2pi::fss
