// Experiment E5: mixed-app service trace — Poisson arrivals through the
// streaming submission path.
//
// Models the engine as a long-lived service: UAV, camera-pill and rover
// scenarios arrive as a Poisson process (seeded exponential inter-arrival
// times) and are `submit`ted the moment they arrive; per-scenario
// completion latency (arrival -> completion callback) is sampled and the
// p50/p95 of the trace is reported.  The rover shares its perception
// kernels with the UAV, so the trace also exercises cross-program
// memoisation under service load: both apps' scenarios hit the one cache
// that already holds the shared entries.
//
// A second experiment replays the same trace twice against one persistent
// result store directory — a cold service filling the store, then a
// restarted service (fresh ResultStore instance, so the segment scan and
// mmap path run) warm-starting from it.  The warm phase must serve
// byte-identical certificates, recompute nothing that was stored (zero
// store misses), and spend less summed analyse-stage time than the cold
// phase; any violation fails the process, which is how the CI bench-smoke
// step gates the store.
//
// A third experiment drives the admission subsystem (DESIGN.md §12) into
// overload: arrival rate above service capacity, mixed priority classes,
// per-class deadlines and bounded queues.  Gates: the service actually
// sheds (rejected + shed > 0), the accounting is exact
// (completed + rejected + shed + cancelled == submitted, cross-checked
// against AdmissionStats), interactive p95 beats the all-equal baseline
// p95 on the identical trace, and every completed request's certificate
// is byte-identical to the no-admission baseline's.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/result_store.hpp"
#include "core/scenario_engine.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

struct Trace {
    std::vector<UseCaseApp> apps;  ///< owns programs/platforms
    std::vector<core::ScenarioRequest> requests;  ///< arrival order
    std::vector<double> gaps_s;                   ///< inter-arrival times
};

/// 45 arrivals, UAV/pill/rover round-robin, two scheduler-option variants,
/// mean inter-arrival 4 ms (a bursty but sustainable load for one host).
Trace make_trace(std::uint64_t seed = 7) {
    Trace trace;
    trace.apps.push_back(make_uav_app("apalis-tk1"));
    trace.apps.push_back(make_camera_pill_app());
    trace.apps.push_back(make_rover_app("apalis-tk1"));

    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> arrival(1.0 / 0.004);
    for (int i = 0; i < 45; ++i) {
        const auto& app = trace.apps[static_cast<std::size_t>(i) %
                                     trace.apps.size()];
        core::ScenarioRequest request;
        request.program = &app.program;
        request.platform = &app.platform;
        request.csl_source = app.csl_source;
        request.options.compiler.population = 6;
        request.options.compiler.iterations = 6;
        request.options.profile_runs = 8;
        request.options.scheduler.anneal_iterations = 80;
        if (i % 2 == 1) request.options.scheduler.seed = 7;
        request.label = app.name + "#" + std::to_string(i);
        trace.requests.push_back(std::move(request));
        trace.gaps_s.push_back(arrival(rng));
    }
    return trace;
}

struct Percentiles {
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

Percentiles percentiles(std::vector<double> latencies_s) {
    std::sort(latencies_s.begin(), latencies_s.end());
    const auto at = [&](double q) {
        const auto index = static_cast<std::size_t>(
            q * static_cast<double>(latencies_s.size() - 1));
        return 1e3 * latencies_s[index];
    };
    return {at(0.50), at(0.95)};
}

struct ReplayResult {
    std::vector<double> latencies_s;        ///< arrival -> completion
    std::vector<std::string> certificates;  ///< canonical text, trace order
    core::EvaluationCache::Stats cache;     ///< after the last completion
    double analyse_s = 0.0;                 ///< summed analyse stage laps
};

/// Replay the trace against a fresh engine (optionally store-backed).
/// Every computed result is appended to the store as it is computed, so
/// `cache.spills` sampled after the last completion covers the whole
/// replay.
ReplayResult replay(const Trace& trace, std::size_t workers,
                    std::shared_ptr<core::ResultStore> store = nullptr) {
    core::ScenarioEngine engine(
        {.worker_threads = workers, .result_store = std::move(store)});
    std::mutex mutex;
    ReplayResult result;
    result.latencies_s.assign(trace.requests.size(), 0.0);

    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(trace.requests.size());
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(trace.gaps_s[i]));
        const auto arrival = std::chrono::steady_clock::now();
        tickets.push_back(engine.submit(
            trace.requests[i],
            [&result, &mutex, i, arrival](const core::ScenarioOutcome&) {
                const double latency =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - arrival)
                        .count();
                const std::lock_guard<std::mutex> lock(mutex);
                result.latencies_s[i] = latency;
            }));
    }
    for (auto& ticket : tickets) ticket.wait();
    result.certificates.reserve(tickets.size());
    for (auto& ticket : tickets)
        result.certificates.push_back(
            ticket.get().certificate.to_text());
    const auto stats = engine.stats();
    result.cache = stats.cache;
    if (const auto it = stats.stage_telemetry.stages().find("analyse");
        it != stats.stage_telemetry.stages().end())
        result.analyse_s = it->second.total_s;
    return result;
}

/// Cold-vs-warm store phases: same trace and directory, two service
/// lifetimes.  Returns false (and prints why) on any gate violation.
bool run_store_phases(const Trace& trace) {
    namespace fs = std::filesystem;
    const fs::path store_dir =
        fs::temp_directory_path() / "teamplay_bench_service_trace_store";
    std::error_code ec;
    fs::remove_all(store_dir, ec);

    ReplayResult cold, warm;
    {
        auto store =
            std::make_shared<core::ResultStore>(store_dir.string());
        cold = replay(trace, 4, store);
    }
    core::ResultStore::Stats warm_store;
    {
        // A *new* instance over the same directory: the warm phase goes
        // through the restarted-process path — segment scan, mmap, lazy
        // verify-on-load.
        auto store =
            std::make_shared<core::ResultStore>(store_dir.string());
        warm = replay(trace, 4, store);
        warm_store = store->stats();
    }
    fs::remove_all(store_dir, ec);

    const auto cold_stats = percentiles(cold.latencies_s);
    const auto warm_stats = percentiles(warm.latencies_s);
    const bool identical = cold.certificates == warm.certificates;
    const bool no_recompute = warm.cache.store_misses == 0;
    // Gate on the work the store replaces.  Completion percentiles are
    // dominated by memory-cache hits that never touch the store, so their
    // medians sit within noise of each other.
    const bool faster = warm.analyse_s < cold.analyse_s;

    std::printf("store cold:  p50 %8.2f ms, p95 %8.2f ms "
                "(%llu spills)\n",
                cold_stats.p50_ms, cold_stats.p95_ms,
                static_cast<unsigned long long>(cold.cache.spills));
    std::printf("store warm:  p50 %8.2f ms, p95 %8.2f ms "
                "(%llu store hits / %llu store misses, %zu indexed)\n",
                warm_stats.p50_ms, warm_stats.p95_ms,
                static_cast<unsigned long long>(warm.cache.store_hits),
                static_cast<unsigned long long>(warm.cache.store_misses),
                warm_store.indexed);
    std::printf("store analyse: cold %8.2f ms, warm %8.2f ms summed laps "
                "(%.1fx)\n",
                1e3 * cold.analyse_s, 1e3 * warm.analyse_s,
                cold.analyse_s / warm.analyse_s);
    if (!identical)
        std::printf("store FAIL: warm certificates differ from cold\n");
    if (!no_recompute)
        std::printf("store FAIL: warm run recomputed %llu stored keys\n",
                    static_cast<unsigned long long>(
                        warm.cache.store_misses));
    if (!faster)
        std::printf("store FAIL: warm analyse laps not below cold\n");
    return identical && no_recompute && faster;
}

/// Cancellation-rate sensitivity: replay the trace while cancelling a
/// seeded subset of tickets right after submission (mid-flight: some are
/// still queued and die unstarted, some already run and complete).  Rows
/// report how survivor completion latency moves as 0/10/30% of the load
/// is cancelled.  Gates are on the *accounting*, which must be exact at
/// every rate: no cancellations observed at 0%, every ticket either
/// completes or raises CancelledError, and nothing else throws.
bool run_cancellation_sweep(const Trace& trace) {
    bool ok = true;
    for (const int percent : {0, 10, 30}) {
        core::ScenarioEngine engine({.worker_threads = 4});
        std::mt19937_64 rng(1234 + static_cast<std::uint64_t>(percent));
        std::bernoulli_distribution pick(percent / 100.0);

        std::mutex mutex;
        std::vector<double> survivor_latencies;
        std::vector<core::ScenarioTicket> tickets;
        tickets.reserve(trace.requests.size());
        std::size_t requested = 0;
        for (std::size_t i = 0; i < trace.requests.size(); ++i) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(trace.gaps_s[i]));
            const auto arrival = std::chrono::steady_clock::now();
            tickets.push_back(engine.submit(
                trace.requests[i],
                [&survivor_latencies, &mutex,
                 arrival](const core::ScenarioOutcome& outcome) {
                    if (outcome.report == nullptr) return;
                    const double latency =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - arrival)
                            .count();
                    const std::lock_guard<std::mutex> lock(mutex);
                    survivor_latencies.push_back(latency);
                }));
            if (pick(rng)) {
                ++requested;
                tickets.back().cancel();
            }
        }

        std::size_t completed = 0;
        std::size_t cancelled = 0;
        std::size_t errors = 0;
        for (auto& ticket : tickets) {
            try {
                (void)ticket.get();
                ++completed;
            } catch (const core::CancelledError&) {
                ++cancelled;
            } catch (...) {
                ++errors;
            }
        }

        const bool accounted =
            completed + cancelled == trace.requests.size() &&
            errors == 0 && cancelled <= requested &&
            (percent > 0 || cancelled == 0);
        const auto stats = survivor_latencies.empty()
                               ? Percentiles{}
                               : percentiles(survivor_latencies);
        std::printf("cancel %2d%%: %2zu cancelled of %2zu requested, "
                    "survivors p50 %8.2f ms, p95 %8.2f ms%s\n",
                    percent, cancelled, requested, stats.p50_ms,
                    stats.p95_ms, accounted ? "" : "  [FAIL accounting]");
        if (!accounted)
            std::printf("cancel FAIL: %zu completed + %zu cancelled + "
                        "%zu errors over %zu tickets (rate %d%%)\n",
                        completed, cancelled, errors,
                        trace.requests.size(), percent);
        ok = ok && accounted;
    }
    return ok;
}

/// 36 arrivals at mean gap 2 ms — well above what two workers can serve —
/// with a distinct compiler seed per arrival so every scenario is unique
/// work (no cache hit can deflate the overload) and the priority classes
/// interleaved round-robin: interactive, batch, background, repeat.
Trace make_overload_trace(std::uint64_t seed = 11) {
    Trace trace;
    trace.apps.push_back(make_uav_app("apalis-tk1"));
    trace.apps.push_back(make_camera_pill_app());
    trace.apps.push_back(make_rover_app("apalis-tk1"));

    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> arrival(1.0 / 0.002);
    for (int i = 0; i < 36; ++i) {
        const auto& app = trace.apps[static_cast<std::size_t>(i) %
                                     trace.apps.size()];
        core::ScenarioRequest request;
        request.program = &app.program;
        request.platform = &app.platform;
        request.csl_source = app.csl_source;
        request.options.compiler.population = 6;
        request.options.compiler.iterations = 6;
        request.options.profile_runs = 8;
        request.options.scheduler.anneal_iterations = 80;
        request.options.compiler.seed =
            100 + static_cast<std::uint64_t>(i);
        request.priority = static_cast<core::Priority>(i % 3);
        request.label = app.name + "#ovl" + std::to_string(i);
        trace.requests.push_back(std::move(request));
        trace.gaps_s.push_back(arrival(rng));
    }
    return trace;
}

/// Overload + mixed-priority phase.  Two runs over the identical trace:
/// an all-equal baseline (batch priority, no deadlines, unbounded queues
/// — the p95 reference *and* the certificate oracle), then the admission
/// run (per-class deadlines and bounded queues on the same two workers).
bool run_overload_phase() {
    using Clock = std::chrono::steady_clock;
    const auto trace = make_overload_trace();

    std::map<std::string, std::string> baseline_certs;
    std::vector<double> baseline_latencies(trace.requests.size(), 0.0);
    {
        core::ScenarioEngine engine({.worker_threads = 2});
        std::mutex mutex;
        std::vector<core::ScenarioTicket> tickets;
        tickets.reserve(trace.requests.size());
        for (std::size_t i = 0; i < trace.requests.size(); ++i) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(trace.gaps_s[i]));
            auto request = trace.requests[i];
            request.priority = core::Priority::kBatch;
            request.deadline.reset();
            const auto arrival = Clock::now();
            tickets.push_back(engine.submit(
                std::move(request),
                [&baseline_latencies, &mutex, i,
                 arrival](const core::ScenarioOutcome&) {
                    const double latency =
                        std::chrono::duration<double>(Clock::now() -
                                                      arrival)
                            .count();
                    const std::lock_guard<std::mutex> lock(mutex);
                    baseline_latencies[i] = latency;
                }));
        }
        for (std::size_t i = 0; i < tickets.size(); ++i)
            baseline_certs[trace.requests[i].label] =
                tickets[i].get().certificate.to_text();
    }
    const auto baseline_stats = percentiles(baseline_latencies);

    // Admission run: interactive rides free (no deadline, unbounded — it
    // must complete, that is the class the p95 gate measures), batch gets
    // 400 ms and a queue of 6, background 200 ms and a queue of 3.
    core::ScenarioEngine engine(
        {.worker_threads = 2, .admission = {.queue_depths = {0, 6, 3}}});
    std::mutex mutex;
    std::vector<double> interactive_latencies;
    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(trace.requests.size());
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(trace.gaps_s[i]));
        auto request = trace.requests[i];
        if (request.priority == core::Priority::kBatch)
            request.deadline =
                Clock::now() + std::chrono::milliseconds(400);
        else if (request.priority == core::Priority::kBackground)
            request.deadline =
                Clock::now() + std::chrono::milliseconds(200);
        const bool interactive =
            request.priority == core::Priority::kInteractive;
        const auto arrival = Clock::now();
        tickets.push_back(engine.submit(
            std::move(request),
            [&interactive_latencies, &mutex, interactive,
             arrival](const core::ScenarioOutcome& outcome) {
                if (!interactive || outcome.report == nullptr) return;
                const double latency =
                    std::chrono::duration<double>(Clock::now() - arrival)
                        .count();
                const std::lock_guard<std::mutex> lock(mutex);
                interactive_latencies.push_back(latency);
            }));
    }

    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t cancelled = 0;
    std::size_t errors = 0;
    bool certs_identical = true;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        try {
            const auto report = tickets[i].get();
            ++completed;
            // Admission is certificate-blind: a request that survives the
            // traffic management must produce the same bytes it produces
            // with none.
            certs_identical =
                certs_identical &&
                report.certificate.to_text() ==
                    baseline_certs[trace.requests[i].label];
        } catch (const core::ShedError& e) {
            if (e.reason() == core::ShedError::Reason::kQueueFull ||
                e.reason() ==
                    core::ShedError::Reason::kDeadlineUnmeetable)
                ++rejected;
            else
                ++shed;
        } catch (const core::CancelledError&) {
            ++cancelled;
        } catch (...) {
            ++errors;
        }
    }

    const auto totals = engine.admission_stats().totals();
    const bool overloaded = rejected + shed > 0;
    const bool accounted =
        completed + rejected + shed + cancelled ==
            trace.requests.size() &&
        errors == 0;
    const bool stats_match = totals.submitted == trace.requests.size() &&
                             totals.completed == completed &&
                             totals.rejected == rejected &&
                             totals.shed == shed &&
                             totals.cancelled == cancelled &&
                             totals.failed == 0;
    const auto interactive_stats = interactive_latencies.empty()
                                       ? Percentiles{}
                                       : percentiles(interactive_latencies);
    const bool priority_win = !interactive_latencies.empty() &&
                              interactive_stats.p95_ms <
                                  baseline_stats.p95_ms;

    std::printf("overload baseline (all equal): p50 %8.2f ms, "
                "p95 %8.2f ms over %zu arrivals\n",
                baseline_stats.p50_ms, baseline_stats.p95_ms,
                trace.requests.size());
    std::printf("overload admission: interactive p95 %8.2f ms "
                "(%zu completed, %zu rejected, %zu shed, %zu cancelled)\n",
                interactive_stats.p95_ms, completed, rejected, shed,
                cancelled);
    if (!overloaded)
        std::printf("overload FAIL: nothing rejected or shed — the trace "
                    "did not overload the service\n");
    if (!accounted)
        std::printf("overload FAIL: %zu completed + %zu rejected + "
                    "%zu shed + %zu cancelled + %zu errors != %zu\n",
                    completed, rejected, shed, cancelled, errors,
                    trace.requests.size());
    if (!stats_match)
        std::printf("overload FAIL: ticket outcomes disagree with "
                    "AdmissionStats (%s)\n",
                    engine.admission_stats().to_string().c_str());
    if (!priority_win)
        std::printf("overload FAIL: interactive p95 %.2f ms not below "
                    "all-equal baseline p95 %.2f ms\n",
                    interactive_stats.p95_ms, baseline_stats.p95_ms);
    if (!certs_identical)
        std::printf("overload FAIL: a completed request's certificate "
                    "differs from the no-admission baseline\n");
    return overloaded && accounted && stats_match && priority_win &&
           certs_identical;
}

bool print_table() {
    const auto trace = make_trace();
    std::printf("=== E5: service trace, %zu Poisson arrivals "
                "(uav/pill/rover round-robin) ===\n",
                trace.requests.size());
    const auto stats = percentiles(replay(trace, 4).latencies_s);
    std::printf("completion latency: p50 %8.2f ms, p95 %8.2f ms\n",
                stats.p50_ms, stats.p95_ms);
    const bool cancel_ok = run_cancellation_sweep(trace);
    const bool store_ok = run_store_phases(trace);
    const bool overload_ok = run_overload_phase();
    return store_ok && cancel_ok && overload_ok;
}

}  // namespace

int main() {
    // A gate violation (cancellation accounting; store certificate drift,
    // a warm recompute or no warm analyse saving; overload accounting,
    // priority or certificates) must fail the process: the CI bench-smoke
    // step relies on this exit code.
    return print_table() ? 0 : 1;
}
