// Fixed-size worker pool with caller participation.
//
// Two primitives:
//
//   `parallel_for` — run a body over an index range with the calling thread
//   working alongside the background workers.  Because the caller always
//   makes progress itself, nested `parallel_for` calls issued from inside a
//   body (the ScenarioEngine runs scenarios in parallel, and each
//   scenario's analyse stage fans out again over (task, core class, OPP)
//   tuples) can never deadlock: at worst the nested call degrades to the
//   calling thread draining its own work.
//
//   `submit` — enqueue one fire-and-forget task and return immediately; the
//   streaming submission path of the ScenarioEngine is built on it.
//   Notification and cancellation live in the caller's handle (the engine's
//   ScenarioTicket), not in the pool: a waiter that wants the result calls
//   `try_run_one` in a loop to help drain the queue (so a caller-only pool
//   still executes everything on the waiting thread) until its own task
//   starts, and then `help_until` its handle's completion flag, running
//   lane-0 fan-out meanwhile.
//
// Priority levels: the queue is an array of lanes; dequeue always takes
// from the lowest-numbered non-empty lane (strict priority).  Level 0 is
// the most urgent — `parallel_for` fan-out always lands there, so the
// sub-tasks of a scenario that is already running are never starved
// behind queued scenario *starts* in lower lanes (a classic priority
// inversion).  The admission layer (core/admission.hpp) maps its request
// classes onto levels 1..N.
//
// Within a lane, ordering is earliest-deadline-first: tasks submitted
// with a deadline drain in deadline order (submission-order tiebreak),
// and ahead of deadline-less tasks, which keep FIFO order among
// themselves.  A lane with no deadlines anywhere therefore behaves
// exactly like the old FIFO; a tight deadline never sits behind a loose
// one that happened to be submitted first.
//
// Determinism contract: a body must only write to state addressed by its own
// index.  Under that discipline results are identical for any worker count,
// which is what lets the engine promise byte-identical certificates for
// 1 vs N threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace teamplay::support {

class ThreadPool {
public:
    /// `workers` background threads; 0 means all work runs on the caller.
    /// `levels` priority lanes (at least 1): level 0 drains first.
    explicit ThreadPool(std::size_t workers = 0, std::size_t levels = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total threads that execute work (workers + the calling thread).
    [[nodiscard]] std::size_t concurrency() const {
        return threads_.size() + 1;
    }

    /// Execute body(0) .. body(n-1), returning when all calls completed.
    /// The calling thread participates.  The first exception thrown by any
    /// body is rethrown here after the batch drains.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

    /// Enqueue one task and return immediately.  The task must not throw;
    /// completion/error reporting belongs to the caller's handle state.
    /// With zero workers the task runs on whichever thread next drains the
    /// queue (`try_run_one` or a `parallel_for` help-drain loop).
    /// `level` selects the priority lane (clamped to the last lane); lower
    /// drains first.  `deadline` orders the task within its lane (EDF,
    /// submission-order tiebreak); deadline-less tasks drain after every
    /// deadline-bearing one, FIFO among themselves.
    void submit(
        std::function<void()> task, std::size_t level = 0,
        std::optional<std::chrono::steady_clock::time_point> deadline = {});

    /// Run one queued task on the calling thread, if any — always from the
    /// most urgent non-empty lane.  Returns false when every lane was
    /// empty.  Waiters use this to participate instead of blocking while
    /// work they depend on sits in the queue.
    bool try_run_one();

    /// Run lane-0 tasks (parallel_for fan-out) on the calling thread until
    /// `done` reads true, sleeping while lane 0 is empty; never touches
    /// lanes >= 1.  A lane-0 push or `wake_helpers()` wakes the sleeper,
    /// so whoever sets `done` must call `wake_helpers()` afterwards.
    /// Returns at most one task's run time after `done` is set.
    void help_until(const std::atomic<bool>& done);

    /// Wake every `help_until` caller to re-check its flag.  Takes the pool
    /// mutex first: a flag set outside it is then either seen by the
    /// helper's check or lands while the helper sleeps — never in between.
    void wake_helpers();

private:
    /// One queued task with its lane-ordering key.  Lanes are binary
    /// min-heaps over `before` (std::push_heap/pop_heap), so EDF popping
    /// is O(log n) per operation and deadline-less lanes cost the same as
    /// the old FIFO deque up to constants.
    struct QueuedTask {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point deadline{};
        bool has_deadline = false;
        std::uint64_t seq = 0;  ///< global submission order (FIFO tiebreak)

        /// Strict weak order: does `*this` drain before `other`?
        [[nodiscard]] bool before(const QueuedTask& other) const;
        /// Heap comparator over `before` (the heap top drains first).
        [[nodiscard]] static bool later(const QueuedTask& a,
                                        const QueuedTask& b);
    };

    void worker_loop();
    /// Returns the lane the task landed in (`level` clamped).
    std::size_t push_locked(std::size_t level, QueuedTask task);
    /// Pop the most urgent task of `lane`.  Caller holds `mutex_` and has
    /// checked the lane is non-empty.
    [[nodiscard]] std::function<void()> pop_lane_locked(std::size_t lane);
    /// Pop from the most urgent non-empty lane.  Caller holds `mutex_` and
    /// has checked `queued_ != 0`.
    [[nodiscard]] std::function<void()> pop_locked();

    std::vector<std::thread> threads_;
    /// One EDF heap per priority level; `queued_` counts tasks across all
    /// lanes so emptiness checks stay O(1).
    std::vector<std::vector<QueuedTask>> lanes_;
    std::uint64_t next_seq_ = 0;
    std::size_t queued_ = 0;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    /// `help_until` sleepers: woken by lane-0 pushes and `wake_helpers`.
    std::condition_variable helper_cv_;
    bool stop_ = false;
};

}  // namespace teamplay::support
