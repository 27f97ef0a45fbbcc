// Admission & deadline subsystem: the traffic-management layer between
// `ScenarioEngine::submit` and the thread pool (DESIGN.md §12).
//
// Every ScenarioRequest carries a Priority class and an optional absolute
// deadline.  The AdmissionController decides, *before* a request touches
// the pool, whether it may queue at all:
//
//   * bounded queue — each priority class has a configurable depth; a
//     submit that would exceed it is rejected immediately (fail fast, no
//     queueing), so an overloaded service degrades by shedding instead of
//     by growing an unbounded backlog;
//   * deadline feasibility — rolling per-stage lap means (EWMA over the
//     laps of completed scenarios) estimate the full-pipeline cost; a
//     request whose deadline cannot be met even if it started now is
//     rejected at admission rather than discovered dead after the work;
//   * mid-flight shedding — at every stage boundary the engine asks the
//     controller whether `now + estimated-cost-of-remaining-stages`
//     overruns the deadline, and sheds the scenario if so.  Work already
//     handed to the evaluation cache completes (single-flight slots are
//     never abandoned), so a shed request is exactly as retryable as a
//     cancelled one.
//
// Both rejection and shedding surface as `ShedError`, a subclass of the
// service's retryable `CancelledError` — existing retry loops (including
// the net/ transport-loss handling) cover shed requests unchanged.
//
// Accounting: AdmissionStats counts submitted / admitted / rejected /
// shed / completed / cancelled / failed plus the queue-depth high-water
// mark, per priority class.  The struct folds commutatively (`merge`) and
// diffs (`since`) exactly like EvaluationCache::Stats, rides in
// BatchStats, and crosses the fabric in wire-v4 stats frames.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/stage_telemetry.hpp"

namespace teamplay::core {

/// Thrown out of a scenario whose ticket was cancelled; surfaces through
/// `ScenarioTicket::get` and completion callbacks, never caches anything.
///
/// This is also the *retryable* error class of the service surface: the
/// scenario did not fail, the attempt did — resubmitting the identical
/// request is always safe and produces the same bytes.  Transport-level
/// failures (net/remote_shard.hpp) and admission decisions (ShedError
/// below) derive from it through the protected constructor so
/// `catch (const CancelledError&)` retry loops cover all of them.
class CancelledError : public std::runtime_error {
public:
    explicit CancelledError(const std::string& label)
        : std::runtime_error("scenario cancelled" +
                             (label.empty() ? "" : ": " + label)) {}

protected:
    /// Tag for subclasses that carry their own full message.
    struct RawMessage {};
    CancelledError(RawMessage, const std::string& message)
        : std::runtime_error(message) {}
};

/// Service priority class of one request.  Lower value = more urgent;
/// the numeric order is load-bearing (thread-pool lane, wire byte).
enum class Priority : std::uint8_t {
    kInteractive = 0,  ///< latency-sensitive: always dequeued first
    kBatch = 1,        ///< the default for everything submitted today
    kBackground = 2,   ///< best-effort: first to wait, first to shed
};

inline constexpr std::size_t kNumPriorityClasses = 3;

[[nodiscard]] constexpr std::string_view priority_name(Priority priority) {
    switch (priority) {
        case Priority::kInteractive: return "interactive";
        case Priority::kBatch: return "batch";
        case Priority::kBackground: return "background";
    }
    return "?";
}

/// Parse a CLI/user spelling; empty optional for anything unknown.
[[nodiscard]] std::optional<Priority> parse_priority(std::string_view name);

/// A request refused admission or shed mid-flight.  Retryable by
/// construction (see CancelledError): the attempt was refused, the
/// scenario itself is intact — resubmit (ideally after backoff, or to a
/// less loaded shard) and the bytes come out identical.
class ShedError : public CancelledError {
public:
    enum class Reason : std::uint8_t {
        kQueueFull,           ///< admission: class queue at configured depth
        kDeadlineUnmeetable,  ///< admission: estimate says it can't finish
        kBudgetExhausted,     ///< stage boundary: remaining budget gone
        kRemote,              ///< re-raised from a server-side shed reply
    };

    ShedError(Reason reason, const std::string& label,
              const std::string& detail)
        : CancelledError(RawMessage{}, compose(reason, label, detail)),
          reason_(reason) {}

    [[nodiscard]] Reason reason() const { return reason_; }

private:
    [[nodiscard]] static std::string compose(Reason reason,
                                             const std::string& label,
                                             const std::string& detail);
    Reason reason_;
};

/// Admission counters, per priority class.  Monotonic except
/// `queue_peak` (a high-water gauge) and `remote_failures` (per-remote
/// consecutive-failure gauges, each kept by a net::RemoteShard and folded
/// by net::Router).
struct AdmissionStats {
    struct PerClass {
        std::uint64_t submitted = 0;   ///< all submit() calls
        std::uint64_t admitted = 0;    ///< entered the queue
        std::uint64_t rejected = 0;    ///< refused at admission
        std::uint64_t shed = 0;        ///< admitted, shed at a boundary
        std::uint64_t completed = 0;
        std::uint64_t cancelled = 0;   ///< caller-requested cancellation
        std::uint64_t failed = 0;      ///< non-retryable scenario errors
        std::uint64_t queue_peak = 0;  ///< max simultaneously queued

        void merge(const PerClass& other);
        [[nodiscard]] PerClass since(const PerClass& before) const;
    };

    std::array<PerClass, kNumPriorityClasses> classes{};
    /// Consecutive transport failures per remote shard, in endpoint
    /// order; reset to zero by any answer from the remote.  Groundwork
    /// for health-checked rerouting.
    std::vector<std::uint64_t> remote_failures;

    void merge(const AdmissionStats& other);
    [[nodiscard]] AdmissionStats since(const AdmissionStats& before) const;
    /// Sum over the classes (queue_peak folds by max).
    [[nodiscard]] PerClass totals() const;
    [[nodiscard]] std::string to_string() const;
};

/// The controller one engine routes every submission through.  Thread-safe;
/// all methods are cheap (one mutex, a few counters, a small map of stage
/// means) so it sits on the submit fast path.
class AdmissionController {
public:
    struct Options {
        /// Max queued (admitted, not yet started) requests per class;
        /// 0 = unbounded.  Defaults keep today's behaviour: everything
        /// admitted, nothing shed unless a deadline says otherwise.
        std::array<std::size_t, kNumPriorityClasses> queue_depths{};
    };

    AdmissionController() : AdmissionController(Options{}) {}
    explicit AdmissionController(Options options)
        : options_(options) {}

    /// Admission decision for one submit.  Returns nullptr and takes a
    /// queue slot on admit; otherwise returns the ShedError (as an
    /// exception_ptr, so the caller can fail the ticket without throwing
    /// across the submit path).
    [[nodiscard]] std::exception_ptr try_admit(
        Priority priority,
        const std::optional<std::chrono::steady_clock::time_point>& deadline,
        const std::string& label);

    /// The request left the queue and began executing.
    void on_start(Priority priority);

    /// Terminal outcomes.  `on_completed` also feeds the per-stage rolling
    /// means that every later feasibility estimate draws on.
    void on_completed(Priority priority, std::span<const StageLap> laps);
    void on_shed(Priority priority);
    void on_cancelled(Priority priority);
    void on_failed(Priority priority);

    /// Stage-boundary budget check: throws ShedError(kBudgetExhausted)
    /// when `now + estimated cost of remaining_stages` overruns the
    /// deadline.  With no recorded laps the estimate is zero, so a cold
    /// controller only sheds once the deadline has actually passed.
    void enforce_budget(Priority priority,
                        std::chrono::steady_clock::time_point deadline,
                        std::span<const std::string_view> remaining_stages,
                        const std::string& label) const;

    [[nodiscard]] AdmissionStats stats() const;

private:
    /// EWMA lap mean of one stage name.  alpha = 0.2: heavy enough to
    /// track cache warm-up (costs drop steeply once keys repeat), light
    /// enough not to chase one outlier lap.
    struct StageMean {
        double mean_s = 0.0;
        bool seeded = false;
    };

    [[nodiscard]] double estimate_locked(
        std::span<const std::string_view> stages) const;

    Options options_;
    mutable std::mutex mutex_;
    AdmissionStats stats_;
    std::array<std::size_t, kNumPriorityClasses> queued_{};
    std::map<std::string, StageMean, std::less<>> stage_means_;
};

}  // namespace teamplay::core
