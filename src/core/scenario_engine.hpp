// Staged, parallel scenario engine: the single driver behind both toolchain
// flows of the paper, structured as an async streaming service core.
//
// A scenario is one (application program, platform, CSL spec, options)
// tuple.  The engine runs it through a fixed table of five stage functions
// (parse -> analyse -> schedule -> contract -> certify, see stages.hpp);
// the predictable flow of Fig. 1 and the complex flow of Fig. 2 are one
// pipeline whose analyse and contract stages branch on the platform class
// — static analysis versus profiling — not two code paths.
//
// Submission model (DESIGN.md §7): `submit(request)` enqueues one scenario
// and returns a ScenarioTicket immediately — a per-scenario future with
// cooperative cancellation (checked at every stage boundary) and an
// optional completion callback, so a service consumes results as they
// finish instead of waiting for a whole batch to drain.  `run` and
// `run_all` are thin wrappers over submission; the CLI, the examples and
// the benches all ride the same path.
//
// Scale machinery:
//   * an EvaluationCache memoises every per-(task entry, core class, OPP)
//     analyser/profiler result, shared across stages and scenarios, with
//     an optional LRU budget for long-lived service use;
//   * a support::ThreadPool evaluates independent tuples concurrently and
//     runs whole scenarios in parallel (streamed or batched);
//   * every stage runs inside a monotonic lap timer; laps aggregate into
//     StageTelemetry (per-stage count/total/max) in BatchStats and per
//     report, so a regression in one stage is attributable.
//
// Determinism: every parallel unit is seeded from its own key and writes to
// its own slot, and every cache key (ir::structural_fingerprint + options)
// covers all bytes that can influence output, so reports — including
// certificate bytes — are identical for any worker count, any cache
// budget, streamed or batched, and for a fresh caller-only engine per
// scenario.  A host runs one engine, and local callers drive it directly;
// net::Router (net/router.hpp) routes submissions across remote shards by
// kernel fingerprint instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/evaluation_cache.hpp"
#include "core/stage_telemetry.hpp"
#include "core/workflow.hpp"
#include "sim/backend.hpp"
#include "support/thread_pool.hpp"

namespace teamplay::core {

class ScenarioEngine;

// CancelledError / ShedError / Priority live in core/admission.hpp (the
// admission layer owns the service's retryable-error and priority model);
// they remain visible through this header for every existing include site.

/// One toolchain invocation to execute.
struct ScenarioRequest {
    const ir::Program* program = nullptr;      ///< must outlive the engine run
    const platform::Platform* platform = nullptr;
    std::string csl_source;                    ///< parsed when `spec` is empty
    std::optional<csl::AppSpec> spec;          ///< pre-parsed spec wins
    WorkflowOptions options;
    std::string label;                         ///< free-form tag for reports
    /// Service class: picks the pool lane and the admission queue.  Does
    /// not influence any computed byte — certificates are priority-blind.
    Priority priority = Priority::kBatch;
    /// Absolute completion deadline (steady clock).  Admission rejects a
    /// request whose deadline is already unmeetable; stage boundaries shed
    /// it once the remaining budget is gone.  Crosses the fabric as
    /// *remaining budget*, so cross-host clock skew never bites.
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Aggregate throughput statistics of one `run_all` batch, and the one
/// snapshot shape of a front's state (`ScenarioEngine::stats`,
/// `net::Router::stats`, the kStats reply), whose batch fields stay zero.
struct BatchStats {
    std::size_t scenarios = 0;
    std::size_t workers = 0;          ///< pool concurrency during the batch
    double wall_s = 0.0;
    double scenarios_per_s = 0.0;
    EvaluationCache::Stats cache;     ///< hits/misses/evictions of this batch
    StageTelemetry stage_telemetry;   ///< per-stage count/total/max
    AdmissionStats admission;         ///< admitted/rejected/shed per class

    [[nodiscard]] std::string to_string() const;
};

class ScenarioTicket;

namespace detail {
struct TicketState;
/// Wrap an external ticket state (make_external_ticket below) in the
/// public handle type.  Lives in detail because only transport adaptors
/// (net/remote_shard.hpp) mint tickets the engine did not issue.
[[nodiscard]] ScenarioTicket wrap_external_ticket(
    std::shared_ptr<TicketState> state);
}  // namespace detail

/// What a completion callback observes for one finished scenario.
struct ScenarioOutcome {
    std::size_t id = 0;               ///< submission id (monotonic)
    std::string label;                ///< request label
    const ToolchainReport* report = nullptr;  ///< null on error/cancellation
    std::exception_ptr error;         ///< set on failure (incl. cancellation)
    bool cancelled = false;
    /// Refused at admission or shed at a stage boundary (`error` holds the
    /// ShedError).  Disjoint from `cancelled`: sheds are the service's
    /// decision, cancels the caller's.
    bool shed = false;
};

/// Per-scenario future handle returned by `ScenarioEngine::submit`.
///
/// Tickets are cheap shared handles (copyable); they must not outlive the
/// engine that issued them.  `wait`/`get` let the calling thread help drain
/// the pool queue, so a caller-only engine still executes everything on the
/// waiting thread — and waiting on the first submitted ticket never blocks
/// behind later submissions.  Once the scenario runs on another thread the
/// waiter only takes stage fan-out (pool lane 0), never a whole queued
/// scenario, so `get()` returns at most one fan-out task after completion;
/// completion callbacks are the zero-delay signal.
class ScenarioTicket {
public:
    ScenarioTicket() = default;

    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    [[nodiscard]] std::size_t id() const;

    /// Non-blocking: has the scenario finished (successfully or not)?
    [[nodiscard]] bool done() const;

    /// Block until the scenario finished: help drain the pool until it
    /// starts, then run its (and other running scenarios') stage fan-out.
    void wait() const;

    /// Wait, then move the report out; rethrows the scenario's error
    /// (CancelledError for a cancelled ticket).  Single-shot.
    [[nodiscard]] ToolchainReport get();

    /// Request cooperative cancellation: the scenario stops at the next
    /// stage boundary (or never starts).  In-flight cache computes finish
    /// normally, so the cache stays consistent and the request retryable.
    void cancel();
    [[nodiscard]] bool cancel_requested() const;

private:
    friend class ScenarioEngine;
    friend ScenarioTicket detail::wrap_external_ticket(
        std::shared_ptr<detail::TicketState> state);
    explicit ScenarioTicket(std::shared_ptr<detail::TicketState> state)
        : state_(std::move(state)) {}

    std::shared_ptr<detail::TicketState> state_;
};

class ScenarioEngine {
public:
    struct Options {
        /// Extra worker threads; 0 = run everything on the calling thread.
        std::size_t worker_threads = 0;
        /// Evaluation-cache retention budget; default unbounded (batch
        /// mode).  A long-lived service should set one.
        EvaluationCache::Budget cache_budget;
        /// Optional persistent result store (result_store.hpp), shared
        /// with sibling engines and future processes: cache misses consult
        /// it before computing, evicted and shutdown-resident entries
        /// spill back.  Null = in-memory cache only.
        std::shared_ptr<ResultStore> result_store;
        /// Simulator tier for every machine this engine constructs
        /// (profiling campaigns, complex-core evaluation).  Defaults to the
        /// trace tier; results are backend-invariant, so this is
        /// never part of an EvaluationKey.
        sim::SimOptions sim;
        /// Admission control (queue depths per priority class).  The
        /// default admits everything — identical to the pre-admission
        /// engine unless requests carry deadlines.
        AdmissionController::Options admission;
    };

    /// Invoked on the executing thread right after a scenario finishes,
    /// before its ticket unblocks.  Must be fast and thread-safe; a throw
    /// is recorded as the scenario's error.
    using Completion = std::function<void(const ScenarioOutcome&)>;

    // Not a default argument: GCC rejects `Options{}` defaults for nested
    // aggregates with member initializers inside the enclosing class.
    ScenarioEngine() : ScenarioEngine(Options{}) {}
    explicit ScenarioEngine(Options options);
    ~ScenarioEngine();

    ScenarioEngine(const ScenarioEngine&) = delete;
    ScenarioEngine& operator=(const ScenarioEngine&) = delete;

    /// Enqueue one scenario and return immediately.  The request is copied;
    /// the program and platform it points to must stay alive until the
    /// ticket completes.  Results become available per scenario — before
    /// any other submission drains.
    [[nodiscard]] ScenarioTicket submit(ScenarioRequest request,
                                        Completion on_complete = {});

    /// Execute one scenario synchronously (wrapper over `submit`).
    [[nodiscard]] ToolchainReport run(const ScenarioRequest& request);

    /// Execute a batch of scenarios in parallel (wrapper over `submit`:
    /// scenario-level parallelism on top of per-stage tuple parallelism;
    /// both draw on the same pool).  Reports come back in request order.
    /// The first scenario error is rethrown after the batch drains.
    [[nodiscard]] std::vector<ToolchainReport> run_all(
        std::span<const ScenarioRequest> requests,
        BatchStats* stats = nullptr);

    [[nodiscard]] EvaluationCache::Stats cache_stats() const {
        return cache_.stats();
    }

    /// Probe for a completed cache entry (falling back to the attached
    /// result store) without computing, blocking or perturbing statistics.
    /// This is what a ShardServer answers a fabric peer's fetch with.
    [[nodiscard]] std::shared_ptr<const EvaluationResult> peek_cached(
        const EvaluationKey& key) const {
        return cache_.peek(key);
    }

    /// Install the remote cache tier: cache misses the store cannot serve
    /// ask this hook (a fabric peer) before computing.
    void set_remote_fetch(EvaluationCache::RemoteFetch fetch) {
        cache_.set_remote_fetch(std::move(fetch));
    }

    /// Spill every completed cache entry to the attached result store
    /// (no-op without one).  Runs automatically at destruction; call it
    /// explicitly before sampling store statistics mid-lifetime.
    void flush_result_store() { cache_.flush_to_store(); }

    /// One snapshot of this engine: workers, cache counters, cumulative
    /// per-stage telemetry across every scenario it completed (streamed
    /// and batched) and admission counters since construction.  The batch
    /// fields (scenarios, wall_s, scenarios_per_s) stay zero.  A
    /// ShardServer answers the kStats RPC with it.
    [[nodiscard]] BatchStats stats() const;

    /// Cumulative admission accounting (submitted/admitted/rejected/shed
    /// per priority class) since construction.
    [[nodiscard]] AdmissionStats admission_stats() const {
        return admission_.stats();
    }

    /// Threads that execute work (workers + caller).
    [[nodiscard]] std::size_t concurrency() const {
        return pool_.concurrency();
    }

private:
    [[nodiscard]] ToolchainReport run_scenario(
        const ScenarioRequest& request, const std::atomic<bool>& cancelled);
    void execute(detail::TicketState& state);

    EvaluationCache cache_;
    sim::SimOptions sim_;
    mutable std::mutex telemetry_mutex_;
    StageTelemetry telemetry_;
    AdmissionController admission_;
    std::atomic<std::size_t> next_ticket_id_{0};
    /// Declared last on purpose: the pool is destroyed *first*, which joins
    /// the workers (and lets them drain still-queued submissions) while the
    /// cache and telemetry those tasks dereference are still alive.
    support::ThreadPool pool_;
};

namespace detail {

// External tickets: the transport client (net/remote_shard.hpp) hands out
// ScenarioTickets for scenarios that execute in *another process*.  The
// state is created with no pool, so waiters block on the rendezvous
// directly instead of trying to help-drain a pool that is not there; the
// reader thread that receives the reply completes it.

/// Mint the state for an external ticket.  `on_cancel` fires exactly once,
/// on the first `ScenarioTicket::cancel()` call (a transport client sends
/// the cancel RPC from it).
[[nodiscard]] std::shared_ptr<TicketState> make_external_ticket(
    std::size_t id, ScenarioRequest request,
    ScenarioEngine::Completion on_complete,
    std::function<void()> on_cancel);

/// Publish the outcome of an external ticket: runs the completion
/// callback, stores the report/error, and releases every waiter.  Must be
/// called exactly once per ticket.  `shed` marks a server-side admission
/// refusal / budget shed (mirrors ScenarioOutcome::shed).
void complete_external_ticket(TicketState& state, ToolchainReport report,
                              std::exception_ptr error, bool cancelled,
                              bool shed = false);

[[nodiscard]] const ScenarioRequest& ticket_request(const TicketState& state);

}  // namespace detail

}  // namespace teamplay::core
