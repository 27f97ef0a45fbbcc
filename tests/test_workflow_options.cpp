// Workflow option plumbing and report invariants: glue style overrides,
// engine selection, security hint enforcement, RTA attachment, front
// invariants.
#include <gtest/gtest.h>

#include "core/scenario_engine.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

TEST(WorkflowOptions, GlueStyleOverride) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.glue_style = coordination::GlueStyle::kRtems;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    EXPECT_NE(report.glue_code.find("rtems"), std::string::npos);

    options.glue_style = coordination::GlueStyle::kPosix;
    const auto report2 = engine.run({.program = &app.program,
                                     .platform = &app.platform,
                                     .spec = spec,
                                     .options = options});
    EXPECT_NE(report2.glue_code.find("pthread"), std::string::npos);
}

TEST(WorkflowOptions, EngineSelectionAllProduceValidReports) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine toolchain;
    for (const auto engine :
         {compiler::MultiCriteriaCompiler::Engine::kFpa,
          compiler::MultiCriteriaCompiler::Engine::kNsga2,
          compiler::MultiCriteriaCompiler::Engine::kWeightedSum}) {
        core::WorkflowOptions options;
        options.compiler.engine = engine;
        options.compiler.population = 4;
        options.compiler.iterations = 4;
        const auto report = toolchain.run({.program = &app.program,
                                           .platform = &app.platform,
                                           .spec = spec,
                                           .options = options});
        EXPECT_TRUE(report.schedule.feasible);
        EXPECT_TRUE(contracts::verify_certificate(report.certificate));
        EXPECT_FALSE(report.fronts.empty());
    }
}

TEST(WorkflowOptions, SecurityHintForcesCountermeasure) {
    // Rewrite the pill CSL to demand ladderisation on the encrypt task.
    const auto app = usecases::make_camera_pill_app();
    std::string csl_text = app.csl_source;
    const auto pos = csl_text.find("security auto");
    ASSERT_NE(pos, std::string::npos);
    csl_text.replace(pos, std::string("security auto").size(),
                     "security ladder");
    const auto spec = csl::parse(csl_text);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    for (const auto& front : report.fronts) {
        if (front.task != "encrypt") continue;
        for (const auto& version : front.versions)
            EXPECT_EQ(version.config.security,
                      compiler::SecurityLevel::kLadder);
    }
}

TEST(WorkflowReport, RtaAttachedForPeriodicSingleCoreApps) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    // All five pill tasks are periodic and pinned to the M0 -> RM analysis
    // for that core must be present and pass.
    ASSERT_FALSE(report.rta.empty());
    for (const auto& [core_index, result] : report.rta) {
        EXPECT_TRUE(result.schedulable);
        for (const double response : result.response_times)
            EXPECT_GT(response, 0.0);
    }
}

TEST(WorkflowReport, FrontsAreMutuallyNonDominated) {
    const auto app = usecases::make_parking_app(true);
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 8;
    options.compiler.iterations = 8;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    for (const auto& front : report.fronts) {
        for (const auto& a : front.versions)
            for (const auto& b : front.versions) {
                if (&a == &b) continue;
                const bool dominates =
                    a.time_s <= b.time_s && a.energy_j <= b.energy_j &&
                    a.leakage <= b.leakage &&
                    (a.time_s < b.time_s || a.energy_j < b.energy_j ||
                     a.leakage < b.leakage);
                EXPECT_FALSE(dominates)
                    << front.task << ": " << a.config.label()
                    << " dominates " << b.config.label();
            }
    }
}

TEST(WorkflowReport, ChosenVersionResolvesEveryScheduledTask) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    for (const auto& entry : report.schedule.entries) {
        const auto* version = report.chosen_version(entry.task);
        ASSERT_NE(version, nullptr) << entry.task;
        // The schedule's budgeted duration equals the version's WCET.
        EXPECT_NEAR(entry.finish_s - entry.start_s, version->wcet_s, 1e-12);
    }
    EXPECT_EQ(report.chosen_version("nonexistent"), nullptr);
}

TEST(WorkflowReport, SummaryMentionsEveryTask) {
    const auto app = usecases::make_space_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    const auto text = report.summary();
    for (const auto& task : spec.tasks)
        EXPECT_NE(text.find(task.name), std::string::npos) << task.name;
}

TEST(ComplexWorkflowOptions, ProfileRunsControlSampleCount) {
    const auto app = usecases::make_uav_app();
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;
    core::WorkflowOptions options;
    options.profile_runs = 4;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    // Every (task, class, opp) combination received a profiled version.
    for (const auto& task : report.graph.tasks) {
        for (const auto& [cls, versions] : task.versions) {
            EXPECT_FALSE(versions.empty());
            for (const auto& version : versions) {
                EXPECT_GT(version.time_s, 0.0);
                EXPECT_NE(version.note.find("profiled"), std::string::npos);
            }
        }
    }
}

}  // namespace
