// ScenarioEngine layer: thread pool semantics, evaluation-cache
// memoisation, rejection of invalid programs on every attempt, determinism
// across worker counts, and batch execution statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "ir/program.hpp"
#include "ir/validate.hpp"
#include "support/thread_pool.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

// -- thread pool --------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexOnceCallerOnly) {
    support::ThreadPool pool(0);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<int> counts(64, 0);
    pool.parallel_for(counts.size(),
                      [&](std::size_t i) { counts[i] += 1; });
    for (const int count : counts) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, CoversEveryIndexOnceWithWorkers) {
    support::ThreadPool pool(3);
    EXPECT_EQ(pool.concurrency(), 4u);
    std::vector<std::atomic<int>> counts(512);
    pool.parallel_for(counts.size(), [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    support::ThreadPool pool(2);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    pool.parallel_for(grid.size(), [&](std::size_t row) {
        pool.parallel_for(grid[row].size(),
                          [&](std::size_t col) { grid[row][col] = 1; });
    });
    for (const auto& row : grid)
        EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), 8);
}

TEST(ThreadPool, RethrowsBodyException) {
    support::ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

// -- evaluation cache ---------------------------------------------------------

core::EvaluationKey taint_key(std::uint64_t structural_fp, const char* entry) {
    core::EvaluationKey key;
    key.structural_fp = structural_fp;
    key.entry = entry;
    key.kind = core::AnalysisKind::kTaint;
    return key;
}

TEST(EvaluationCache, MissThenHit) {
    core::EvaluationCache cache;
    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        core::EvaluationResult result;
        result.leakage = 4.0;
        return result;
    };
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "f");
    EXPECT_DOUBLE_EQ(cache.lookup(key, compute)->leakage, 4.0);
    EXPECT_DOUBLE_EQ(cache.lookup(key, compute)->leakage, 4.0);
    EXPECT_EQ(computes, 1);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(EvaluationCache, SingleFlightUnderConcurrency) {
    core::EvaluationCache cache;
    support::ThreadPool pool(3);
    std::atomic<int> computes{0};
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "g");
    pool.parallel_for(32, [&](std::size_t) {
        (void)cache.lookup(key, [&] {
            computes.fetch_add(1);
            return core::EvaluationResult{};
        });
    });
    EXPECT_EQ(computes.load(), 1);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 32u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(EvaluationCache, ThrowingComputePropagatesAndRetries) {
    core::EvaluationCache cache;
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "h");
    EXPECT_THROW((void)cache.lookup(
                     key,
                     []() -> core::EvaluationResult {
                         throw std::runtime_error("analysis failed");
                     }),
                 std::runtime_error);
    // The failure is not cached: a later lookup recomputes successfully.
    const auto result = cache.lookup(key, [] {
        core::EvaluationResult r;
        r.leakage = 1.0;
        return r;
    });
    EXPECT_DOUBLE_EQ(result->leakage, 1.0);
}

// -- requests through the engine ----------------------------------------------

core::WorkflowOptions fast_options() {
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal_iterations = 60;
    return options;
}

core::ScenarioRequest request_for(const usecases::UseCaseApp& app,
                                  const csl::AppSpec& spec,
                                  const core::WorkflowOptions& options) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.spec = spec;
    request.options = options;
    request.label = app.name;
    return request;
}

void expect_reports_identical(const core::ToolchainReport& a,
                              const core::ToolchainReport& b) {
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.certificate.to_text(), b.certificate.to_text());
    EXPECT_EQ(a.glue_code, b.glue_code);
    EXPECT_EQ(a.sequential_glue, b.sequential_glue);
    EXPECT_EQ(a.schedule.entries.size(), b.schedule.entries.size());
    EXPECT_DOUBLE_EQ(a.schedule.makespan_s, b.schedule.makespan_s);
    EXPECT_EQ(a.fronts.size(), b.fronts.size());
}

TEST(ScenarioEngine, ParsesCslSourceWhenSpecAbsent) {
    const auto app = usecases::make_camera_pill_app();
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options = fast_options();
    core::ScenarioEngine engine;
    const auto report = engine.run(request);
    EXPECT_EQ(report.spec.name, csl::parse(app.csl_source).name);
    EXPECT_TRUE(report.schedule.feasible);
}

TEST(ScenarioEngine, RejectsRequestWithoutProgramOrPlatform) {
    core::ScenarioEngine engine;
    EXPECT_THROW((void)engine.run(core::ScenarioRequest{}),
                 std::invalid_argument);
}

TEST(ScenarioEngine, MalformedCslFailsItsTicketWithCslError) {
    const auto pill = usecases::make_camera_pill_app();
    core::ScenarioRequest request;
    request.program = &pill.program;
    request.platform = &pill.platform;
    request.csl_source = "app broken on nothing {";
    core::ScenarioEngine engine;
    auto ticket = engine.submit(request);
    EXPECT_THROW((void)ticket.get(), csl::CslError);
}

/// Point operand a of the first instruction of `entry` that reads one at a
/// register past the function's register file.
void break_operand(ir::Program& program, const std::string& entry) {
    ir::Function* fn = program.find(entry);
    ASSERT_NE(fn, nullptr);
    bool broken = false;
    ir::for_each_instr(*fn->body, [&](ir::Instr& instr) {
        if (!broken && ir::reads_a(instr.op)) {
            instr.a = static_cast<ir::Reg>(fn->reg_count);
            broken = true;
        }
    });
    ASSERT_TRUE(broken);
}

/// What the ticket's scenario failed with, or "" when it succeeded.
std::string failure_of(core::ScenarioTicket ticket) {
    try {
        (void)ticket.get();
    } catch (const std::exception& error) {
        return error.what();
    }
    return "";
}

TEST(ScenarioEngine, InvalidProgramIsRejectedOnEveryAttempt) {
    core::ScenarioEngine::Options engine_options;
    engine_options.worker_threads = 2;
    core::ScenarioEngine engine(engine_options);
    const auto options = fast_options();

    auto invalid = usecases::make_camera_pill_app();
    const auto spec = csl::parse(invalid.csl_source);
    break_operand(invalid.program, spec.tasks.front().entry);
    const auto errors = ir::validate(invalid.program);
    ASSERT_FALSE(errors.empty());
    for (int attempt = 0; attempt < 2; ++attempt) {
        SCOPED_TRACE("attempt " + std::to_string(attempt));
        const auto error =
            failure_of(engine.submit(request_for(invalid, spec, options)));
        EXPECT_NE(error.find("IR validation failed"), std::string::npos)
            << error;
        EXPECT_NE(error.find(errors.front()), std::string::npos) << error;
    }
    EXPECT_EQ(engine.cache_stats().misses, 0U);  // parse stopped both

    // A program that ran once is validated again on resubmission: edited
    // in place to be invalid, it fails.
    auto app = usecases::make_camera_pill_app();
    ASSERT_EQ(failure_of(engine.submit(request_for(app, spec, options))), "");
    break_operand(app.program, spec.tasks.front().entry);
    const auto error =
        failure_of(engine.submit(request_for(app, spec, options)));
    EXPECT_NE(error.find("IR validation failed"), std::string::npos)
        << error;
}

// -- cache behaviour through the engine ---------------------------------------

TEST(ScenarioEngine, SecondIdenticalScenarioIsAllCacheHits) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    const auto options = fast_options();
    core::ScenarioEngine engine;

    const auto first = engine.run(request_for(app, spec, options));
    const auto after_first = engine.cache_stats();
    // One front per (task, admissible core class): all misses, no hits.
    EXPECT_EQ(after_first.misses, first.fronts.size());
    EXPECT_EQ(after_first.hits, 0u);

    const auto second = engine.run(request_for(app, spec, options));
    const auto after_second = engine.cache_stats();
    EXPECT_EQ(after_second.misses, after_first.misses);  // nothing recomputed
    EXPECT_EQ(after_second.hits, first.fronts.size());
    expect_reports_identical(first, second);
}

TEST(ScenarioEngine, SchedulerOnlyVariantsShareAnalyses) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;

    auto options = fast_options();
    (void)engine.run(request_for(app, spec, options));
    const auto after_first = engine.cache_stats();

    options.scheduler.objective =
        coordination::Scheduler::Objective::kMakespan;
    options.scheduler.seed = 99;
    (void)engine.run(request_for(app, spec, options));
    const auto after_second = engine.cache_stats();
    // Scheduling options do not key any analysis: zero new misses.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
}

// -- determinism and batches --------------------------------------------------

std::vector<core::ScenarioRequest> mixed_requests(
    const std::vector<usecases::UseCaseApp>& apps) {
    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps) {
        auto options = fast_options();
        requests.push_back(
            request_for(app, csl::parse(app.csl_source), options));
        options.scheduler.objective =
            coordination::Scheduler::Objective::kMakespan;
        requests.push_back(
            request_for(app, csl::parse(app.csl_source), options));
    }
    return requests;
}

TEST(ScenarioEngine, DeterministicAcrossWorkerCounts) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));
    const auto requests = mixed_requests(apps);

    core::ScenarioEngine single;  // caller-only
    core::ScenarioEngine pooled({.worker_threads = 4});
    const auto sequential = single.run_all(requests);
    const auto parallel = pooled.run_all(requests);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        SCOPED_TRACE(requests[i].label + " #" + std::to_string(i));
        expect_reports_identical(sequential[i], parallel[i]);
    }
}

TEST(ScenarioEngine, RunAllReportsBatchStatsAndOrder) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_space_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));
    apps.push_back(usecases::make_parking_app(true));
    const auto requests = mixed_requests(apps);  // 8 mixed scenarios
    ASSERT_GE(requests.size(), 8u);

    core::ScenarioEngine engine({.worker_threads = 4});
    core::BatchStats stats;
    const auto reports = engine.run_all(requests, &stats);

    ASSERT_EQ(reports.size(), requests.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        // Reports come back in request order.
        EXPECT_EQ(reports[i].spec.name, requests[i].spec->name) << i;
        EXPECT_TRUE(reports[i].schedule.feasible) << i;
        EXPECT_TRUE(contracts::verify_certificate(reports[i].certificate))
            << i;
    }
    EXPECT_EQ(stats.scenarios, requests.size());
    EXPECT_EQ(stats.workers, 5u);  // 4 workers + caller
    EXPECT_GT(stats.wall_s, 0.0);
    EXPECT_GT(stats.scenarios_per_s, 0.0);
    // Each app appears twice with scheduler-only variations: the second
    // occurrence's analyses must come from the cache.
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.cache.misses, 0u);
    EXPECT_FALSE(stats.to_string().empty());
}

}  // namespace
