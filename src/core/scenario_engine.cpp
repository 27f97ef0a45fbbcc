#include "core/scenario_engine.hpp"

#include <chrono>
#include <condition_variable>
#include <sstream>
#include <utility>

#include "core/stages.hpp"

namespace teamplay::core {

namespace detail {

/// Shared state behind one ScenarioTicket: the owned request, the
/// cancellation token, and the completion rendezvous (`finished` for
/// polling and pool helpers, the cv for waiters on external tickets).
struct TicketState {
    std::size_t id = 0;
    ScenarioRequest request;
    support::ThreadPool* pool = nullptr;
    ScenarioEngine::Completion on_complete;
    /// External tickets only (transport clients): invoked by the first
    /// `ScenarioTicket::cancel()` call, outside any lock.  Immutable after
    /// construction.
    std::function<void()> on_cancel;

    std::atomic<bool> cancel{false};
    std::atomic<bool> started{false};   ///< execution began on some thread
    std::atomic<bool> finished{false};  ///< set under `mutex`
    std::mutex mutex;
    std::condition_variable cv;
    bool cancelled = false;
    bool shed = false;
    bool retrieved = false;
    ToolchainReport report;
    std::exception_ptr error;
};

}  // namespace detail

namespace {

/// Shared completion tail of engine-executed and external tickets: run the
/// callback, publish under the rendezvous lock, release the waiters.
void publish_ticket(detail::TicketState& state, ToolchainReport report,
                    std::exception_ptr error, bool cancelled,
                    bool shed = false) {
    if (state.on_complete) {
        ScenarioOutcome outcome;
        outcome.id = state.id;
        outcome.label = state.request.label;
        outcome.report = error ? nullptr : &report;
        outcome.error = error;
        outcome.cancelled = cancelled;
        outcome.shed = shed;
        try {
            state.on_complete(outcome);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }

    {
        const std::lock_guard<std::mutex> lock(state.mutex);
        state.report = std::move(report);
        state.error = error;
        state.cancelled = cancelled;
        state.shed = shed;
        state.finished.store(true, std::memory_order_release);
    }
    // Engine tickets are awaited in ThreadPool::help_until, external ones
    // on the cv (ScenarioTicket::wait).
    if (state.pool != nullptr)
        state.pool->wake_helpers();
    else
        state.cv.notify_all();
}

}  // namespace

namespace detail {

std::shared_ptr<TicketState> make_external_ticket(
    std::size_t id, ScenarioRequest request,
    ScenarioEngine::Completion on_complete,
    std::function<void()> on_cancel) {
    auto state = std::make_shared<TicketState>();
    state->id = id;
    state->request = std::move(request);
    state->on_complete = std::move(on_complete);
    state->on_cancel = std::move(on_cancel);
    // No pool: ScenarioTicket::wait must never try to help-drain work that
    // runs in another process.
    return state;
}

ScenarioTicket wrap_external_ticket(std::shared_ptr<TicketState> state) {
    return ScenarioTicket(std::move(state));
}

void complete_external_ticket(TicketState& state, ToolchainReport report,
                              std::exception_ptr error, bool cancelled,
                              bool shed) {
    publish_ticket(state, std::move(report), error, cancelled, shed);
}

const ScenarioRequest& ticket_request(const TicketState& state) {
    return state.request;
}

}  // namespace detail

// -- ScenarioTicket -----------------------------------------------------------

std::size_t ScenarioTicket::id() const { return state_->id; }

bool ScenarioTicket::done() const {
    return state_->finished.load(std::memory_order_acquire);
}

void ScenarioTicket::wait() const {
    auto& state = *state_;
    if (state.pool == nullptr) {
        // External ticket: the scenario runs in another process, so there
        // is nothing here to help with.
        std::unique_lock<std::mutex> lock(state.mutex);
        state.cv.wait(lock, [&state] {
            return state.finished.load(std::memory_order_relaxed);
        });
        return;
    }
    // Help drain the pool while our own task is still queued: with zero
    // workers this is what executes the scenario (in submission order), and
    // with workers it keeps the waiting thread productive instead of idle.
    while (!state.started.load(std::memory_order_acquire) &&
           state.pool->try_run_one()) {
    }
    // Once the task runs on another thread, only its stage fan-out (lane
    // 0) is worth taking: a whole later scenario could keep this thread
    // busy far past our own completion, while a fan-out task delays it by
    // one tuple at most.  publish_ticket wakes us when it finishes.
    state.pool->help_until(state.finished);
}

ToolchainReport ScenarioTicket::get() {
    wait();
    auto& state = *state_;
    const std::lock_guard<std::mutex> lock(state.mutex);
    if (state.error) std::rethrow_exception(state.error);
    if (state.retrieved)
        throw std::logic_error("ScenarioTicket::get() is single-shot");
    state.retrieved = true;
    return std::move(state.report);
}

void ScenarioTicket::cancel() {
    if (!state_->cancel.exchange(true, std::memory_order_relaxed) &&
        state_->on_cancel)
        state_->on_cancel();
}

bool ScenarioTicket::cancel_requested() const {
    return state_->cancel.load(std::memory_order_relaxed);
}

// -- BatchStats ---------------------------------------------------------------

std::string BatchStats::to_string() const {
    std::ostringstream os;
    os << scenarios << " scenarios in " << wall_s << " s (" << scenarios_per_s
       << " scenarios/s, " << workers << " threads; cache: " << cache.hits
       << " hits / " << cache.misses << " misses, " << cache.evictions
       << " evictions, " << cache.entries << " entries)";
    return os.str();
}

// -- ScenarioEngine -----------------------------------------------------------

ScenarioEngine::ScenarioEngine(Options options)
    : cache_(options.cache_budget, std::move(options.result_store)),
      sim_(std::move(options.sim)),
      admission_(options.admission),
      // Lane 0 is reserved for parallel_for fan-out of running scenarios;
      // lanes 1..N map the priority classes (see thread_pool.hpp).
      pool_(options.worker_threads, kNumPriorityClasses + 1) {}

ScenarioEngine::~ScenarioEngine() {
    // Outstanding submissions run to completion before the members they
    // dereference go away: a caller-only engine drains them here, and a
    // worker pool finishes the rest inside ~ThreadPool — which runs first
    // (pool_ is the last-declared member) and joins every worker while the
    // cache and telemetry are still alive.  Cancelled tickets exit at their
    // first stage boundary.
    while (pool_.try_run_one()) {
    }
}

ToolchainReport ScenarioEngine::run_scenario(
    const ScenarioRequest& request, const std::atomic<bool>& cancelled) {
    if (request.program == nullptr || request.platform == nullptr)
        throw std::invalid_argument(
            "ScenarioRequest requires a program and a platform");
    ScenarioContext context;
    context.request = &request;
    context.program = request.program;
    context.platform = request.platform;
    context.options = request.options;
    context.cache = &cache_;
    context.pool = &pool_;
    context.sim = sim_;

    for (std::size_t i = 0; i < kStageNames.size(); ++i) {
        // Cooperative cancellation, checked at every stage boundary: work
        // already handed to the cache completes (single-flight slots are
        // never abandoned), so a cancelled request stays retryable.
        if (cancelled.load(std::memory_order_relaxed))
            throw CancelledError(request.label);
        // Deadline budget, enforced at the same boundaries: shed (throws
        // ShedError, equally retryable) once the rolling estimate of the
        // remaining stages no longer fits before the deadline.
        if (request.deadline.has_value())
            admission_.enforce_budget(
                request.priority, *request.deadline,
                std::span<const std::string_view>(kStageNames).subspan(i),
                request.label);
        const auto lap_start = std::chrono::steady_clock::now();
        run_stage(i, context);
        context.report.stage_laps.push_back(
            {std::string(kStageNames[i]),
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           lap_start)
                 .count()});
    }
    {
        const std::lock_guard<std::mutex> lock(telemetry_mutex_);
        telemetry_.merge(context.report.stage_laps);
    }
    return std::move(context.report);
}

void ScenarioEngine::execute(detail::TicketState& state) {
    state.started.store(true, std::memory_order_release);
    admission_.on_start(state.request.priority);
    ToolchainReport report;
    std::exception_ptr error;
    bool cancelled = false;
    bool shed = false;
    try {
        report = run_scenario(state.request, state.cancel);
        admission_.on_completed(state.request.priority, report.stage_laps);
    } catch (const ShedError&) {
        shed = true;
        error = std::current_exception();
        admission_.on_shed(state.request.priority);
    } catch (const CancelledError&) {
        cancelled = true;
        error = std::current_exception();
        admission_.on_cancelled(state.request.priority);
    } catch (...) {
        error = std::current_exception();
        admission_.on_failed(state.request.priority);
    }
    publish_ticket(state, std::move(report), error, cancelled, shed);
}

ScenarioTicket ScenarioEngine::submit(ScenarioRequest request,
                                      Completion on_complete) {
    auto state = std::make_shared<detail::TicketState>();
    state->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
    state->request = std::move(request);
    state->pool = &pool_;
    state->on_complete = std::move(on_complete);
    // Admission gate: a refused request never touches the pool — its
    // ticket is published failed (retryable ShedError) right here, on the
    // submitting thread, so overload answers in microseconds.
    if (auto rejection = admission_.try_admit(state->request.priority,
                                              state->request.deadline,
                                              state->request.label)) {
        state->started.store(true, std::memory_order_release);
        publish_ticket(*state, {}, rejection, /*cancelled=*/false,
                       /*shed=*/true);
        return ScenarioTicket(std::move(state));
    }
    // The task owns a reference to the state, so a caller that drops its
    // ticket (fire-and-forget with a completion callback) is safe.  The
    // pool lane is the priority class (lane 0 belongs to stage fan-out);
    // the deadline orders the request within its lane (EDF), so a tight
    // deadline admitted after a loose one still starts first.
    pool_.submit([this, state] { execute(*state); },
                 1 + static_cast<std::size_t>(state->request.priority),
                 state->request.deadline);
    return ScenarioTicket(std::move(state));
}

ToolchainReport ScenarioEngine::run(const ScenarioRequest& request) {
    return submit(request).get();
}

std::vector<ToolchainReport> ScenarioEngine::run_all(
    std::span<const ScenarioRequest> requests, BatchStats* stats) {
    const auto before = cache_.stats();
    const auto admission_before = admission_.stats();
    const auto start = std::chrono::steady_clock::now();

    std::vector<ScenarioTicket> tickets;
    tickets.reserve(requests.size());
    for (const auto& request : requests) tickets.push_back(submit(request));

    std::vector<ToolchainReport> reports(requests.size());
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        try {
            reports[i] = tickets[i].get();
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }

    if (stats != nullptr) {
        const auto after = cache_.stats();
        stats->scenarios = requests.size();
        stats->workers = pool_.concurrency();
        stats->wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        stats->scenarios_per_s =
            stats->wall_s > 0.0
                ? static_cast<double>(requests.size()) / stats->wall_s
                : 0.0;
        stats->cache = after.since(before);
        stats->admission = admission_.stats().since(admission_before);
        // Merge in request order: deterministic, and identical in shape to
        // what a streamed consumer would aggregate from its callbacks.
        for (const auto& report : reports)
            stats->stage_telemetry.merge(report.stage_laps);
    }
    if (first_error) std::rethrow_exception(first_error);
    return reports;
}

BatchStats ScenarioEngine::stats() const {
    BatchStats stats;
    stats.workers = pool_.concurrency();
    stats.cache = cache_.stats();
    stats.admission = admission_.stats();
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    stats.stage_telemetry = telemetry_;
    return stats;
}

}  // namespace teamplay::core
