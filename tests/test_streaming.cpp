// Service-core surfaces of the ScenarioEngine: the thread pool's help
// primitives, async submission tickets (and byte identity while waiters
// help), completion callbacks and their ordering, cooperative cancellation
// (and that it leaves the evaluation cache retryable), bounded-cache
// eviction accounting and byte-identical certificates under a tiny budget,
// and the per-stage telemetry threaded through BatchStats and reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_engine.hpp"
#include "fuzz/oracle.hpp"
#include "support/thread_pool.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

core::WorkflowOptions fast_options() {
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal_iterations = 60;
    return options;
}

core::ScenarioRequest request_for(const usecases::UseCaseApp& app,
                                  const core::WorkflowOptions& options) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.spec = csl::parse(app.csl_source);
    request.options = options;
    request.label = app.name;
    return request;
}

// -- thread pool submission primitives ---------------------------------------

TEST(ThreadPool, SubmitRunsViaTryRunOneOnCallerOnlyPool) {
    support::ThreadPool pool(0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    EXPECT_TRUE(order.empty());  // nothing runs until someone drains
    while (pool.try_run_one()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));  // FIFO
    EXPECT_FALSE(pool.try_run_one());
}

TEST(ThreadPool, NestedParallelForWithZeroWorkers) {
    support::ThreadPool pool(0);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    pool.parallel_for(grid.size(), [&](std::size_t row) {
        pool.parallel_for(grid[row].size(),
                          [&](std::size_t col) { grid[row][col] = 1; });
    });
    for (const auto& row : grid)
        EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), 8);
}

TEST(ThreadPool, HelpUntilRunsOnlyLaneZeroUntilTheFlagIsSet) {
    support::ThreadPool pool(0, 3);
    std::atomic<bool> done{false};
    std::vector<std::string> order;
    pool.submit([&] { order.push_back("fan-out a"); }, 0);
    pool.submit([&] { order.push_back("scenario"); }, 1);
    pool.submit(
        [&] {
            order.push_back("fan-out b");
            done.store(true, std::memory_order_release);
            pool.wake_helpers();
        },
        0);
    pool.submit([&] { order.push_back("fan-out c"); }, 0);

    pool.help_until(done);
    // Lane-0 tasks ran on this thread until the flag was set; the queued
    // scenario (lane 1) and the fan-out task behind the flag were left.
    EXPECT_EQ(order, (std::vector<std::string>{"fan-out a", "fan-out b"}));
    while (pool.try_run_one()) {
    }
    EXPECT_EQ(order, (std::vector<std::string>{"fan-out a", "fan-out b",
                                               "fan-out c", "scenario"}));
}

TEST(ThreadPool, HelpUntilWakesOnALaneZeroPush) {
    support::ThreadPool pool(0, 2);
    std::atomic<bool> done{false};
    std::thread::id ran_on;
    // The helper sleeps on an empty lane 0 until another thread pushes
    // fan-out, which it then runs itself (the pool has no workers).
    std::thread pusher([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pool.submit(
            [&] {
                ran_on = std::this_thread::get_id();
                done.store(true, std::memory_order_release);
                pool.wake_helpers();
            },
            0);
    });
    pool.help_until(done);
    pusher.join();
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// The flag is set outside the pool mutex; wake_helpers' mutex handoff is
// what stops a helper from checking the flag, missing the notify, and
// sleeping forever.  Each round lines the worker's set-and-wake up with
// the main thread's entry into help_until, shifted by a few spins per
// round so some rounds land inside the check-then-sleep window.  A lost
// wake-up hangs this test (ctest's timeout).
TEST(ThreadPool, HelpUntilNeverLosesAWakeUp) {
    support::ThreadPool pool(1, 2);
    std::atomic<bool> done{false};
    std::atomic<int> phase{0};
    for (int round = 0; round < 2000; ++round) {
        done.store(false, std::memory_order_relaxed);
        phase.store(0);
        // Lane 1: only the worker runs it, never the helping thread.
        pool.submit(
            [&, round] {
                phase.store(1);
                while (phase.load() != 2) {
                }
                for (int spin = 0; spin < round % 64; ++spin)
                    (void)phase.load(std::memory_order_relaxed);
                done.store(true, std::memory_order_release);
                pool.wake_helpers();
            },
            1);
        while (phase.load() != 1) std::this_thread::yield();
        phase.store(2);
        pool.help_until(done);
    }
    EXPECT_TRUE(done.load());
}

// -- streaming submission ------------------------------------------------------

TEST(Streaming, ResultAvailableBeforeBatchDrains) {
    const auto pill = usecases::make_camera_pill_app();
    const auto space = usecases::make_space_app();
    core::ScenarioEngine engine;  // caller-only: deterministic FIFO drain

    auto first = engine.submit(request_for(pill, fast_options()));
    auto second = engine.submit(request_for(space, fast_options()));
    EXPECT_FALSE(first.done());
    EXPECT_FALSE(second.done());

    // Waiting on the first ticket drains exactly up to its completion: the
    // streamed path yields a per-scenario result while the rest of the
    // batch is still pending — the opposite of the old run_all barrier.
    first.wait();
    EXPECT_TRUE(first.done());
    EXPECT_FALSE(second.done());

    const auto first_report = first.get();
    EXPECT_TRUE(contracts::verify_certificate(first_report.certificate));
    const auto second_report = second.get();
    EXPECT_TRUE(second.done());
    EXPECT_TRUE(contracts::verify_certificate(second_report.certificate));
}

TEST(Streaming, CompletionCallbacksObserveEveryScenarioOnce) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_space_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));

    core::ScenarioEngine engine({.worker_threads = 3});
    std::mutex mutex;
    std::vector<std::size_t> completed_ids;
    std::vector<core::ScenarioTicket> tickets;
    for (const auto& app : apps) {
        tickets.push_back(engine.submit(
            request_for(app, fast_options()),
            [&](const core::ScenarioOutcome& outcome) {
                ASSERT_NE(outcome.report, nullptr);
                EXPECT_FALSE(outcome.cancelled);
                const std::lock_guard<std::mutex> lock(mutex);
                completed_ids.push_back(outcome.id);
            }));
    }
    for (auto& ticket : tickets) ticket.wait();

    // Every scenario completed exactly once, whatever the completion order.
    ASSERT_EQ(completed_ids.size(), tickets.size());
    std::sort(completed_ids.begin(), completed_ids.end());
    for (std::size_t i = 0; i < tickets.size(); ++i)
        EXPECT_EQ(completed_ids[i], tickets[i].id());
}

TEST(Streaming, CallerOnlyEngineCompletesInRequestOrder) {
    const auto pill = usecases::make_camera_pill_app();
    core::ScenarioEngine engine;  // caller-only: FIFO queue drain
    std::vector<std::size_t> order;
    std::vector<core::ScenarioTicket> tickets;
    for (int i = 0; i < 3; ++i) {
        tickets.push_back(
            engine.submit(request_for(pill, fast_options()),
                          [&order](const core::ScenarioOutcome& outcome) {
                              order.push_back(outcome.id);
                          }));
    }
    for (auto& ticket : tickets) ticket.wait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Streaming, StreamedCertificatesMatchRunAllAndWorkerCounts) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_uav_app("jetson-nano"));
    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps)
        requests.push_back(request_for(app, fast_options()));

    core::ScenarioEngine batch_engine;
    const auto batch_reports = batch_engine.run_all(requests);

    core::ScenarioEngine stream_engine({.worker_threads = 4});
    std::vector<core::ScenarioTicket> tickets;
    for (const auto& request : requests)
        tickets.push_back(stream_engine.submit(request));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const auto report = tickets[i].get();
        EXPECT_EQ(report.certificate.to_text(),
                  batch_reports[i].certificate.to_text());
        EXPECT_EQ(report.glue_code, batch_reports[i].glue_code);
    }
}

// With workers, a waiter whose scenario has started runs the stage
// fan-out of running scenarios; reports must not depend on which thread
// ran which tuple.
TEST(Streaming, HelpingWaiterKeepsReportsByteIdentical) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_parking_app(false));
    for (const char* board : {"apalis-tk1", "jetson-tx2", "jetson-nano"})
        apps.push_back(usecases::make_uav_app(board));
    apps.push_back(usecases::make_rover_app("apalis-tk1"));
    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps)
        requests.push_back(request_for(app, fast_options()));

    core::ScenarioEngine caller_only;
    const auto reference = caller_only.run_all(requests);
    for (const std::size_t workers : {1U, 3U}) {
        core::ScenarioEngine engine({.worker_threads = workers});
        const auto reports = engine.run_all(requests);
        ASSERT_EQ(reports.size(), reference.size());
        for (std::size_t i = 0; i < reports.size(); ++i) {
            EXPECT_EQ(fuzz::canonical_bytes(reports[i]),
                      fuzz::canonical_bytes(reference[i]))
                << requests[i].label << " with " << workers << " workers";
            EXPECT_EQ(reports[i].certificate.to_text(),
                      reference[i].certificate.to_text());
        }
    }
}

TEST(Streaming, FireAndForgetSurvivesEngineDestruction) {
    const auto pill = usecases::make_camera_pill_app();
    std::atomic<int> completions{0};
    {
        core::ScenarioEngine engine({.worker_threads = 2});
        // Tickets dropped on the floor: the engine is destroyed while the
        // scenarios may be queued or mid-stage on workers.  Destruction
        // must let them run to completion against live engine state.
        for (int i = 0; i < 3; ++i) {
            (void)engine.submit(request_for(pill, fast_options()),
                                [&](const core::ScenarioOutcome& outcome) {
                                    if (outcome.report != nullptr)
                                        completions.fetch_add(1);
                                });
        }
    }
    EXPECT_EQ(completions.load(), 3);
}

TEST(Streaming, GetIsSingleShot) {
    const auto pill = usecases::make_camera_pill_app();
    core::ScenarioEngine engine;
    auto ticket = engine.submit(request_for(pill, fast_options()));
    (void)ticket.get();
    EXPECT_THROW((void)ticket.get(), std::logic_error);
}

// -- cancellation -------------------------------------------------------------

TEST(Streaming, CancellationMidBatchLeavesOthersAndCacheIntact) {
    const auto pill = usecases::make_camera_pill_app();
    const auto space = usecases::make_space_app();
    const auto options = fast_options();

    // Baseline bytes from an untouched engine.
    core::ScenarioEngine reference;
    const auto expected = reference.run(request_for(space, options));

    core::ScenarioEngine engine;  // caller-only: nothing ran yet
    auto first = engine.submit(request_for(pill, options));
    auto cancelled = engine.submit(request_for(space, options));
    auto third = engine.submit(request_for(pill, options));

    bool observed_cancel = false;
    std::exception_ptr observed_error;
    auto watched = engine.submit(
        request_for(space, options),
        [&](const core::ScenarioOutcome& outcome) {
            observed_cancel = outcome.cancelled;
            observed_error = outcome.error;
        });
    cancelled.cancel();
    watched.cancel();
    EXPECT_TRUE(cancelled.cancel_requested());

    EXPECT_NO_THROW((void)first.get());
    EXPECT_THROW((void)cancelled.get(), core::CancelledError);
    EXPECT_NO_THROW((void)third.get());
    EXPECT_THROW((void)watched.get(), core::CancelledError);
    EXPECT_TRUE(observed_cancel);
    EXPECT_NE(observed_error, nullptr);

    // The cancelled request is retryable on the same engine, and the cache
    // holds nothing poisoned: the rerun produces the reference bytes.
    const auto retried = engine.run(request_for(space, options));
    EXPECT_EQ(retried.certificate.to_text(),
              expected.certificate.to_text());
    EXPECT_EQ(retried.glue_code, expected.glue_code);
}

// -- bounded cache ------------------------------------------------------------

TEST(BoundedCache, EvictionKeepsCertificatesByteIdentical) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_space_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));
    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps) {
        // Two variants per app so a generous cache would serve hits.
        auto options = fast_options();
        requests.push_back(request_for(app, options));
        options.scheduler.objective =
            coordination::Scheduler::Objective::kMakespan;
        requests.push_back(request_for(app, options));
    }

    core::ScenarioEngine unbounded;
    const auto expected = unbounded.run_all(requests);

    core::ScenarioEngine tiny(
        {.worker_threads = 2, .cache_budget = {.max_entries = 1}});
    core::BatchStats stats;
    const auto reports = tiny.run_all(requests, &stats);

    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].certificate.to_text(),
                  expected[i].certificate.to_text())
            << requests[i].label << " #" << i;
    }
    // A one-entry budget on a multi-key batch must have evicted, and the
    // resident set must respect the budget once the batch drained.
    EXPECT_GT(stats.cache.evictions, 0u);
    EXPECT_LE(tiny.cache_stats().entries, 1u);
}

core::EvaluationKey scalar_key(std::uint64_t n) {
    core::EvaluationKey key;
    key.structural_fp = n;
    key.entry = "f" + std::to_string(n);
    key.kind = core::AnalysisKind::kTaint;
    return key;
}

core::EvaluationCache::Compute scalar_compute(int& computes, double value) {
    return [&computes, value] {
        ++computes;
        core::EvaluationResult result;
        result.leakage = value;
        return result;
    };
}

TEST(BoundedCache, LruEvictsColdestAndCountsConsistently) {
    core::EvaluationCache cache({.max_entries = 2});
    int computes = 0;
    (void)cache.lookup(scalar_key(1), scalar_compute(computes, 1.0));
    (void)cache.lookup(scalar_key(2), scalar_compute(computes, 2.0));
    // Touch key 1 so key 2 is the coldest, then overflow the budget.
    (void)cache.lookup(scalar_key(1), scalar_compute(computes, 1.0));
    (void)cache.lookup(scalar_key(3), scalar_compute(computes, 3.0));
    EXPECT_EQ(computes, 3);

    auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.resident_cost, 0.0);

    // Key 1 was kept hot; key 2 was evicted and recomputes.
    (void)cache.lookup(scalar_key(1), scalar_compute(computes, 1.0));
    EXPECT_EQ(computes, 3);
    (void)cache.lookup(scalar_key(2), scalar_compute(computes, 2.0));
    EXPECT_EQ(computes, 4);
}

TEST(BoundedCache, InFlightSlotIsNeverEvicted) {
    core::EvaluationCache cache({.max_entries = 1});
    int computes = 0;
    double inner = 0.0;
    // While key 2's compute is in flight, key 1 is admitted and churned
    // through the one-entry budget; the in-flight slot must survive.
    const auto result = cache.lookup(scalar_key(2), [&] {
        inner = cache.lookup(scalar_key(1), scalar_compute(computes, 1.0))
                    ->leakage;
        core::EvaluationResult r;
        r.leakage = 2.0;
        return r;
    });
    EXPECT_DOUBLE_EQ(inner, 1.0);
    EXPECT_DOUBLE_EQ(result->leakage, 2.0);
    int recomputes = 0;
    (void)cache.lookup(scalar_key(2), scalar_compute(recomputes, 2.0));
    EXPECT_EQ(recomputes, 0);  // key 2 resident: it finished last (hot)
    // Key 1's eviction took its cost with it: one scalar entry (cost 1.0)
    // remains resident.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_DOUBLE_EQ(stats.resident_cost, 1.0);
}

// -- per-stage telemetry -------------------------------------------------------

TEST(StageTelemetry, MergeIsOrderIndependentAndAggregates) {
    core::StageTelemetry a;
    a.record("parse", 0.010);
    a.record("analyse", 0.200);
    core::StageTelemetry b;
    b.record("parse", 0.030);

    core::StageTelemetry ab = a;
    ab.merge(b);
    core::StageTelemetry ba = b;
    ba.merge(a);

    ASSERT_EQ(ab.stages().size(), 2u);
    const auto& parse = ab.stages().at("parse");
    EXPECT_EQ(parse.count, 2u);
    EXPECT_DOUBLE_EQ(parse.total_s, 0.040);
    EXPECT_DOUBLE_EQ(parse.max_s, 0.030);
    EXPECT_DOUBLE_EQ(parse.mean_s(), 0.020);
    EXPECT_EQ(ab.to_string(), ba.to_string());
    EXPECT_NE(ab.to_string().find("analyse"), std::string::npos);
}

TEST(StageTelemetry, ReportsAndBatchStatsCarryLaps) {
    const auto pill = usecases::make_camera_pill_app();
    const auto uav = usecases::make_uav_app("apalis-tk1");
    std::vector<core::ScenarioRequest> requests;
    requests.push_back(request_for(pill, fast_options()));
    requests.push_back(request_for(uav, fast_options()));

    core::ScenarioEngine engine({.worker_threads = 2});
    core::BatchStats stats;
    const auto reports = engine.run_all(requests, &stats);

    const char* expected[] = {"parse", "analyse", "schedule", "contract",
                              "certify"};
    for (const auto& report : reports) {
        ASSERT_EQ(report.stage_laps.size(), 5u);
        for (std::size_t i = 0; i < 5; ++i) {
            EXPECT_EQ(report.stage_laps[i].stage, expected[i]);
            EXPECT_GE(report.stage_laps[i].seconds, 0.0);
        }
    }
    ASSERT_EQ(stats.stage_telemetry.stages().size(), 5u);
    for (const char* stage : expected) {
        const auto& per_stage = stats.stage_telemetry.stages().at(stage);
        EXPECT_EQ(per_stage.count, requests.size()) << stage;
        EXPECT_GE(per_stage.max_s, 0.0) << stage;
        EXPECT_LE(per_stage.max_s, per_stage.total_s + 1e-12) << stage;
    }
    // The engine's cumulative view saw the same laps.
    const auto cumulative = engine.stats().stage_telemetry;
    ASSERT_EQ(cumulative.stages().size(), 5u);
    EXPECT_EQ(cumulative.stages().at("certify").count, requests.size());
    EXPECT_FALSE(stats.to_string().empty());
    EXPECT_FALSE(stats.stage_telemetry.to_string().empty());
}

}  // namespace
