#include "pi/tail_batch.hpp"

namespace c2pi::pi {

TailBatcher::TailBatcher(const CompiledModel& model, std::size_t max_group,
                         std::chrono::milliseconds window)
    : model_(&model), target_(max_group), window_(window) {
    require(!model.full_pi(), "TailBatcher: a full-PI model has no clear tail to batch");
    require(max_group >= 1, "TailBatcher: max_group must be >= 1");
    require(window.count() >= 0, "TailBatcher: window must be >= 0 ms");
}

Tensor TailBatcher::run(const Tensor& activation) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!current_) {
        current_ = std::make_shared<Group>();
        current_->activations =
            Tensor(model_->batched_boundary_shape(static_cast<std::int64_t>(target_)));
        current_->deadline = std::chrono::steady_clock::now() + window_;
    }
    const auto group = current_;
    const std::size_t slot = group->arrived++;
    const std::int64_t per = activation.numel();
    for (std::int64_t j = 0; j < per; ++j)
        group->activations[static_cast<std::int64_t>(slot) * per + j] = activation[j];
    ++requests_;

    if (group->arrived >= target_) {
        // A full group closes with zero extra wait: no more sessions can
        // possibly join it (target_ bounds the concurrent depositors).
        close_and_run(group, lock);
    } else if (slot == 0) {
        // The group's first arrival is its timekeeper: wait out the
        // window and close the group unless someone else closed it first.
        while (!group->closed) {
            if (cv_.wait_until(lock, group->deadline) == std::cv_status::timeout &&
                !group->closed) {
                close_and_run(group, lock);
                break;
            }
        }
    }
    cv_.wait(lock, [&] { return group->done || group->error != nullptr; });
    if (group->error) std::rethrow_exception(group->error);

    const std::int64_t classes = group->logits.dim(1);
    Tensor row({1, classes});
    for (std::int64_t j = 0; j < classes; ++j)
        row[j] = group->logits.at(static_cast<std::int64_t>(slot), j);
    return row;
}

void TailBatcher::close_and_run(const std::shared_ptr<Group>& group,
                                std::unique_lock<std::mutex>& lock) {
    group->closed = true;
    if (current_ == group) current_.reset();  // next deposit starts a new group
    ++batches_;
    const std::size_t n = group->arrived;
    Tensor batch;
    if (n == target_) {
        batch = std::move(group->activations);
    } else {
        // Window expired on a part-filled group: trim to the rows that
        // actually arrived (run_clear_tail derives N from the tensor).
        batch = Tensor(model_->batched_boundary_shape(static_cast<std::int64_t>(n)));
        for (std::int64_t j = 0; j < batch.numel(); ++j) batch[j] = group->activations[j];
    }
    // The pass runs unlocked so new arrivals form the next group while
    // this one computes.
    lock.unlock();
    Tensor logits;
    std::exception_ptr error;
    try {
        logits = model_->run_clear_tail(batch);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr) {
        group->error = error;
    } else {
        group->logits = std::move(logits);
        group->done = true;
    }
    cv_.notify_all();
}

std::uint64_t TailBatcher::batches() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
}

std::uint64_t TailBatcher::requests() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requests_;
}

}  // namespace c2pi::pi
