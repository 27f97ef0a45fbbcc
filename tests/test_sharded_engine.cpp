// ShardedScenarioEngine (core/sharded_engine.hpp): fingerprint routing
// stability and cross-program colocation across a remote domain,
// byte-identical certificates from a local front versus the engine,
// telemetry through the front, cancellation, and the error surface of
// malformed requests on a local and on a remote-only front.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "csl/csl.hpp"
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
                                  const std::string& label = {}) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options = fast_options();
    request.label = label.empty() ? app.name : label;
    return request;
}

struct Fleet {
    std::vector<usecases::UseCaseApp> apps;
    std::vector<core::ScenarioRequest> requests;
};

/// Mixed batch over all flows: 2 predictable apps, 2 complex apps (UAV and
/// rover share their perception kernels), 2 option variants each.
Fleet make_fleet() {
    Fleet fleet;
    fleet.apps.push_back(usecases::make_camera_pill_app());
    fleet.apps.push_back(usecases::make_space_app());
    fleet.apps.push_back(usecases::make_uav_app("apalis-tk1"));
    fleet.apps.push_back(usecases::make_rover_app("apalis-tk1"));
    for (const auto& app : fleet.apps)
        for (const int variant : {0, 1}) {
            auto request = request_for(
                app, app.name + "/v" + std::to_string(variant));
            if (variant == 1) request.options.scheduler.seed = 7;
            fleet.requests.push_back(std::move(request));
        }
    return fleet;
}

// -- routing ------------------------------------------------------------------

/// A routing domain of four remote shards.  Nothing listens on these
/// reserved ports, but connections are lazy, so routing needs no server.
core::ShardedScenarioEngine::Options remote_domain() {
    return {.remote_endpoints = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3",
                                 "127.0.0.1:4"}};
}

TEST(ShardRouter, StableAndSpecRepresentationIndependent) {
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const core::ShardedScenarioEngine engine(remote_domain());
    ASSERT_EQ(engine.shard_count(), 4U);

    const auto from_source = request_for(uav);
    auto pre_parsed = request_for(uav);
    pre_parsed.spec = csl::parse(uav.csl_source);

    const auto shard = engine.shard_of(from_source);
    EXPECT_EQ(shard, engine.shard_of(from_source));  // deterministic
    EXPECT_EQ(shard, engine.shard_of(pre_parsed));   // representation-free
    EXPECT_LT(shard, engine.shard_count());
}

TEST(ShardRouter, SameKernelScenariosColocate) {
    // Option/label/scheduler variations of the same application analyse
    // the same kernels, so they must land where the cache is warm.
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const core::ShardedScenarioEngine engine(remote_domain());
    auto variant = request_for(uav, "variant");
    variant.options.scheduler.seed = 99;
    variant.options.profile_runs = 7;
    EXPECT_EQ(engine.shard_of(request_for(uav)), engine.shard_of(variant));
}

TEST(ShardRouter, UavAndRoverColocate) {
    // The UAV and the rover share their primary kernel (uav_capture), so
    // the router sends both to the remote whose cache holds it.
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const auto rover = usecases::make_rover_app("apalis-tk1");
    const core::ShardedScenarioEngine engine(remote_domain());
    EXPECT_EQ(engine.shard_of(request_for(uav)),
              engine.shard_of(request_for(rover)));
}

// -- determinism: the acceptance criterion ------------------------------------

TEST(ShardedEngine, LocalFrontIsByteIdenticalToTheEngine) {
    const auto fleet = make_fleet();

    core::ScenarioEngine reference;
    const auto baseline = reference.run_all(fleet.requests);

    core::ShardedScenarioEngine front({.engine = {.worker_threads = 2}});
    EXPECT_EQ(front.shard_count(), 1U);
    EXPECT_EQ(front.concurrency(), 3U);  // two workers plus the caller
    const auto reports = front.run_all(fleet.requests);
    ASSERT_EQ(reports.size(), baseline.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].certificate.to_text(),
                  baseline[i].certificate.to_text())
            << "scenario=" << fleet.requests[i].label;
        EXPECT_EQ(reports[i].summary(), baseline[i].summary());
        EXPECT_EQ(reports[i].glue_code, baseline[i].glue_code);
    }
}

TEST(ShardedEngine, TelemetryFoldCountsEveryStageOfEveryScenario) {
    const auto fleet = make_fleet();
    core::ShardedScenarioEngine engine;
    core::BatchStats stats;
    (void)engine.run_all(fleet.requests, &stats);

    const auto telemetry = engine.stage_telemetry();
    // 5 pipeline stages, one lap per scenario each.
    ASSERT_EQ(telemetry.stages().size(), 5U);
    for (const auto& [name, stage] : telemetry.stages())
        EXPECT_EQ(stage.count, fleet.requests.size()) << name;
    for (const auto& [name, stage] : stats.stage_telemetry.stages())
        EXPECT_EQ(stage.count, fleet.requests.size()) << name;
}

// -- service surface ----------------------------------------------------------

TEST(ShardedEngine, StreamingCompletionAndCancellation) {
    const auto pill = usecases::make_camera_pill_app();
    const auto space = usecases::make_space_app();
    core::ShardedScenarioEngine engine;  // caller-only

    auto doomed = engine.submit(request_for(space));
    doomed.cancel();  // before anything drains the engine

    std::vector<std::string> completed;
    auto ticket = engine.submit(
        request_for(pill), [&](const core::ScenarioOutcome& outcome) {
            completed.push_back(outcome.label);
        });
    auto report = ticket.get();
    EXPECT_TRUE(report.certificate.all_hold());
    EXPECT_EQ(completed, std::vector<std::string>{"camera_pill"});

    EXPECT_THROW((void)doomed.get(), core::CancelledError);
    // A cancelled request stays retryable on the same engine.
    auto retried = engine.submit(request_for(space));
    EXPECT_TRUE(retried.get().certificate.all_hold());
}

TEST(ShardedEngine, MalformedRequestsSurfaceThroughTickets) {
    const auto pill = usecases::make_camera_pill_app();

    core::ShardedScenarioEngine engine;
    auto bad_csl = request_for(pill);
    bad_csl.csl_source = "app broken on nothing {";
    auto csl_ticket = engine.submit(bad_csl);
    EXPECT_THROW((void)csl_ticket.get(), csl::CslError);

    core::ScenarioRequest no_program;
    no_program.platform = &pill.platform;
    no_program.csl_source = pill.csl_source;
    auto program_ticket = engine.submit(no_program);
    EXPECT_THROW((void)program_ticket.get(), std::invalid_argument);

    // A remote-only front fails the ticket the same way, before it
    // connects to anything.
    core::ShardedScenarioEngine remote_front(remote_domain());
    auto remote_ticket = remote_front.submit(no_program);
    EXPECT_THROW((void)remote_ticket.get(), std::invalid_argument);
}

TEST(ShardedEngine, ClearCachesResetsEveryShard) {
    const auto fleet = make_fleet();
    core::ShardedScenarioEngine engine;
    (void)engine.run_all(fleet.requests);
    ASSERT_GT(engine.cache_stats().entries, 0U);
    engine.clear_caches();
    const auto cleared = engine.cache_stats();
    EXPECT_EQ(cleared.entries, 0U);
    EXPECT_EQ(cleared.hits, 0U);
    EXPECT_EQ(cleared.misses, 0U);
}

}  // namespace
