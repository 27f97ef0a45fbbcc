#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace teamplay::support {

namespace {

/// Join state of one parallel_for call.  Tasks from different calls share
/// the pool queue; each task resolves against its own batch.
struct Batch {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers, std::size_t levels)
    : lanes_(std::max<std::size_t>(levels, 1)) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
}

bool ThreadPool::QueuedTask::before(const QueuedTask& other) const {
    // Deadline-bearing tasks drain first (EDF), deadline-less ones keep
    // submission order after them; `seq` breaks every remaining tie, so
    // equal deadlines are FIFO too.
    if (has_deadline != other.has_deadline) return has_deadline;
    if (has_deadline && deadline != other.deadline)
        return deadline < other.deadline;
    return seq < other.seq;
}

bool ThreadPool::QueuedTask::later(const QueuedTask& a,
                                   const QueuedTask& b) {
    return b.before(a);  // heap comparator: "a is less urgent than b"
}

std::function<void()> ThreadPool::pop_lane_locked(std::size_t lane) {
    auto& heap = lanes_[lane];
    std::pop_heap(heap.begin(), heap.end(), &QueuedTask::later);
    auto task = std::move(heap.back().fn);
    heap.pop_back();
    --queued_;
    return task;
}

std::function<void()> ThreadPool::pop_locked() {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
        if (!lanes_[lane].empty()) return pop_lane_locked(lane);
    return {};  // unreachable: caller checked queued_ != 0
}

std::size_t ThreadPool::push_locked(std::size_t level, QueuedTask task) {
    const std::size_t lane = std::min(level, lanes_.size() - 1);
    task.seq = next_seq_++;
    auto& heap = lanes_[lane];
    heap.push_back(std::move(task));
    std::push_heap(heap.begin(), heap.end(), &QueuedTask::later);
    ++queued_;
    return lane;
}

void ThreadPool::submit(
    std::function<void()> task, std::size_t level,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
    std::size_t lane = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        QueuedTask queued;
        queued.fn = std::move(task);
        if (deadline.has_value()) {
            queued.deadline = *deadline;
            queued.has_deadline = true;
        }
        lane = push_locked(level, std::move(queued));
    }
    work_cv_.notify_one();
    if (lane == 0) helper_cv_.notify_all();
}

bool ThreadPool::try_run_one() {
    std::function<void()> task;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (queued_ == 0) return false;
        task = pop_locked();
    }
    task();
    return true;
}

void ThreadPool::help_until(const std::atomic<bool>& done) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!done.load(std::memory_order_acquire)) {
        if (lanes_[0].empty()) {
            helper_cv_.wait(lock);
            continue;
        }
        auto task = pop_lane_locked(0);
        lock.unlock();
        task();
        lock.lock();
    }
}

void ThreadPool::wake_helpers() {
    // Empty critical section: a helper is either before its flag check
    // (and will see the flag) or already asleep on helper_cv_.
    { const std::lock_guard<std::mutex> lock(mutex_); }
    helper_cv_.notify_all();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] { return stop_ || queued_ != 0; });
            if (queued_ == 0) return;  // stop requested and drained
            task = pop_locked();
        }
        task();
    }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    if (threads_.empty()) {
        // Same contract as the pooled path: every body runs, the first
        // exception is rethrown once the batch has drained.
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                body(i);
            } catch (...) {
                if (!error) error = std::current_exception();
            }
        }
        if (error) std::rethrow_exception(error);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->remaining = n;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < n; ++i) {
            // `body` outlives the batch: parallel_for only returns once
            // every task has run, so capturing it by pointer is safe.
            // Lane 0, no deadline: fan-out of running work preempts queued
            // starts and keeps submission (index) order among itself.
            QueuedTask task;
            task.fn = [batch, &body, i] {
                try {
                    body(i);
                } catch (...) {
                    const std::lock_guard<std::mutex> guard(batch->mutex);
                    if (!batch->error)
                        batch->error = std::current_exception();
                }
                const std::lock_guard<std::mutex> guard(batch->mutex);
                if (--batch->remaining == 0) batch->done_cv.notify_all();
            };
            push_locked(0, std::move(task));
        }
    }
    work_cv_.notify_all();
    helper_cv_.notify_all();

    // Help drain the queue (possibly including other batches' tasks), then
    // wait for stragglers of this batch still running on workers.
    while (try_run_one()) {
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait(lock, [&batch] { return batch->remaining == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace teamplay::support
