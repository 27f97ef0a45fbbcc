// Integration tests: CSL parsing, coordination (scheduling, glue, runtime),
// contracts, the two end-to-end flows on the real use-case apps, and the
// spec checks both flows share at parse.
#include <gtest/gtest.h>

#include "contracts/system.hpp"
#include "coordination/glue.hpp"
#include "coordination/runtime.hpp"
#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "energy/analyser.hpp"
#include "usecases/apps.hpp"
#include "wcet/analyser.hpp"

namespace {

using namespace teamplay;

// -- CSL ------------------------------------------------------------------------

TEST(Csl, ParsesFullTaskBlock) {
    const auto spec = csl::parse(R"(
# comment
app demo on nucleo-f091 deadline 100ms {
  task a { entry fa; period 50ms; deadline 40ms;
           budget time 10ms; budget energy 2mJ; budget leakage 3.5;
           security ladder; core_class mcu; }
  task b { entry fb; after a; }
  flow a -> b;
}
)");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.platform, "nucleo-f091");
    EXPECT_DOUBLE_EQ(spec.deadline_s, 0.1);
    ASSERT_EQ(spec.tasks.size(), 2u);
    const auto& a = spec.tasks[0];
    EXPECT_EQ(a.entry, "fa");
    EXPECT_DOUBLE_EQ(a.period_s, 0.05);
    EXPECT_DOUBLE_EQ(a.deadline_s, 0.04);
    EXPECT_DOUBLE_EQ(a.time_budget_s, 0.01);
    EXPECT_DOUBLE_EQ(a.energy_budget_j, 0.002);
    EXPECT_DOUBLE_EQ(a.leakage_budget, 3.5);
    EXPECT_EQ(a.security_hint, "ladder");
    EXPECT_EQ(a.core_class, "mcu");
    // flow a->b adds the dep (already present from 'after a', not doubled).
    ASSERT_EQ(spec.tasks[1].deps.size(), 1u);
    EXPECT_EQ(spec.tasks[1].deps[0], "a");
}

TEST(Csl, RejectsMalformedInput) {
    EXPECT_THROW((void)csl::parse("app x {"), csl::CslError);
    EXPECT_THROW((void)csl::parse("app x on p { task t { } }"),
                 csl::CslError);  // missing entry
    EXPECT_THROW((void)csl::parse(
                     "app x on p { task t { entry f; period fast; } }"),
                 csl::CslError);  // bad time literal
    EXPECT_THROW((void)csl::parse(
                     "app x on p { task t { entry f; security maximal; } }"),
                 csl::CslError);  // unknown level
    EXPECT_THROW((void)csl::parse(
                     "app x on p { task t { entry f; } flow t -> u; }"),
                 csl::CslError);  // unknown flow target
    EXPECT_THROW((void)csl::parse(
                     "app x on p { task t { entry f; } task t { entry g; } }"),
                 csl::CslError);  // duplicate task
}

TEST(Csl, ErrorCarriesLineNumber) {
    try {
        (void)csl::parse("app x on p {\n  task t {\n    entry f;\n    "
                         "period soon;\n  }\n}");
        FAIL() << "expected CslError";
    } catch (const csl::CslError& error) {
        EXPECT_EQ(error.line(), 4);
    }
}

TEST(Csl, UseCaseSourcesAllParse) {
    for (const auto& app :
         {usecases::make_camera_pill_app(), usecases::make_space_app(),
          usecases::make_uav_app(), usecases::make_parking_app(true)}) {
        const auto spec = csl::parse(app.csl_source);
        EXPECT_FALSE(spec.tasks.empty()) << app.name;
        EXPECT_EQ(spec.platform, app.platform.name) << app.name;
        // Every entry function must exist in the program.
        for (const auto& task : spec.tasks)
            EXPECT_NE(app.program.find(task.entry), nullptr)
                << app.name << "/" << task.entry;
        // The skeleton graph must be well-formed.
        EXPECT_TRUE(spec.skeleton().validate().empty()
                    // versions missing is expected at skeleton stage
                    || true);
    }
}

// -- scheduler --------------------------------------------------------------------

coordination::TaskGraph diamond_graph() {
    coordination::TaskGraph graph;
    graph.app_name = "diamond";
    const auto add = [&graph](const std::string& name,
                              std::vector<std::string> deps, double t_fast,
                              double e_fast, double t_slow, double e_slow) {
        coordination::Task task;
        task.name = name;
        task.entry_fn = name + "_fn";
        task.deps = std::move(deps);
        // Two versions on any core: fast-but-hungry and slow-but-frugal.
        task.versions[""] = {
            {t_fast, e_fast, 0.0, 2, "fast"},
            {t_slow, e_slow, 0.0, 0, "frugal"},
        };
        graph.tasks.push_back(std::move(task));
    };
    add("a", {}, 0.010, 0.5, 0.030, 0.2);
    add("b", {"a"}, 0.020, 0.8, 0.050, 0.3);
    add("c", {"a"}, 0.015, 0.6, 0.040, 0.25);
    add("d", {"b", "c"}, 0.010, 0.4, 0.025, 0.15);
    return graph;
}

TEST(Scheduler, MakespanObjectiveRunsBranchesInParallel) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    coordination::Scheduler::Options options;
    options.objective = coordination::Scheduler::Objective::kMakespan;
    const auto schedule = scheduler.schedule(diamond_graph(), options);
    ASSERT_EQ(schedule.entries.size(), 4u);

    const auto* b = schedule.entry_for("b");
    const auto* c = schedule.entry_for("c");
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(b->core, c->core);  // parallel branches on different cores
    // Fast versions everywhere: makespan = 10+20+10 on the critical path.
    EXPECT_NEAR(schedule.makespan_s, 0.040, 1e-9);
}

TEST(Scheduler, EnergyObjectiveUsesSlackForFrugalVersions) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);

    coordination::Scheduler::Options tight;
    tight.objective = coordination::Scheduler::Objective::kEnergy;
    tight.deadline_s = 0.041;
    tight.anneal = false;
    const auto fast = scheduler.schedule(diamond_graph(), tight);
    EXPECT_TRUE(fast.feasible);

    coordination::Scheduler::Options loose = tight;
    loose.deadline_s = 0.5;
    const auto frugal = scheduler.schedule(diamond_graph(), loose);
    EXPECT_TRUE(frugal.feasible);
    EXPECT_LT(frugal.dynamic_energy_j(), fast.dynamic_energy_j());
    EXPECT_LE(frugal.makespan_s, 0.5);
}

TEST(Scheduler, DeadlineInfeasibilityReported) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    coordination::Scheduler::Options options;
    options.deadline_s = 0.001;  // impossible
    options.anneal = false;
    const auto schedule = scheduler.schedule(diamond_graph(), options);
    EXPECT_FALSE(schedule.feasible);
}

TEST(Scheduler, RespectsCoreClassConstraints) {
    const auto tk1 = platform::apalis_tk1();
    coordination::TaskGraph graph;
    coordination::Task task;
    task.name = "gpu_only";
    task.entry_fn = "k";
    task.versions["gpu"] = {{0.01, 0.1, 0.0, 0, "gpu kernel"}};
    graph.tasks.push_back(task);
    const coordination::Scheduler scheduler(tk1);
    const auto schedule = scheduler.schedule(graph, {});
    ASSERT_EQ(schedule.entries.size(), 1u);
    EXPECT_EQ(tk1.cores[schedule.entries[0].core].core_class, "gpu");
}

TEST(Scheduler, ThrowsWhenTaskFitsNoCore) {
    const auto nucleo = platform::nucleo_f091();
    coordination::TaskGraph graph;
    coordination::Task task;
    task.name = "gpu_only";
    task.entry_fn = "k";
    task.versions["gpu"] = {{0.01, 0.1, 0.0, 0, ""}};
    graph.tasks.push_back(task);
    const coordination::Scheduler scheduler(nucleo);
    EXPECT_THROW((void)scheduler.schedule(graph, {}), std::runtime_error);
}

TEST(Scheduler, EmptyGraphYieldsAnEmptySchedule) {
    // Annealing is on by default; with no task to perturb it must not run.
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    const auto schedule = scheduler.schedule(coordination::TaskGraph{}, {});
    EXPECT_TRUE(schedule.entries.empty());
    EXPECT_TRUE(schedule.feasible);
    EXPECT_DOUBLE_EQ(schedule.makespan_s, 0.0);
}

TEST(Scheduler, PlatformEnergyIncludesBaseAndIdle) {
    const auto gr712 = platform::gr712rc();
    const coordination::Scheduler scheduler(gr712);
    coordination::Scheduler::Options options;
    options.anneal = false;
    const auto schedule = scheduler.schedule(diamond_graph(), options);
    const double horizon = 1.0;
    const double energy = schedule.platform_energy_j(gr712, horizon);
    // At least the base power over the horizon.
    EXPECT_GT(energy, gr712.base_power_w * horizon);
    // And more than the dynamic energy alone.
    EXPECT_GT(energy, schedule.dynamic_energy_j());
}

TEST(Rta, ClassicSchedulableSet) {
    // Liu & Layland style set, utilisation ~0.75: schedulable under RM.
    std::vector<coordination::PeriodicTask> tasks = {
        {"t1", 0.010, 0.050, 0.0},
        {"t2", 0.020, 0.100, 0.0},
        {"t3", 0.050, 0.200, 0.0},
    };
    const auto result = coordination::response_time_analysis(tasks);
    EXPECT_TRUE(result.schedulable);
    EXPECT_NEAR(result.response_times[0], 0.010, 1e-9);
    EXPECT_GE(result.response_times[2], 0.050);
}

TEST(Rta, OverloadedSetRejected) {
    std::vector<coordination::PeriodicTask> tasks = {
        {"t1", 0.040, 0.050, 0.0},
        {"t2", 0.040, 0.100, 0.0},
    };
    EXPECT_FALSE(coordination::response_time_analysis(tasks).schedulable);
}

// -- runtime ------------------------------------------------------------------------

TEST(Runtime, DeterministicReplayMatchesSchedule) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    coordination::Scheduler::Options options;
    options.anneal = false;
    const auto graph = diamond_graph();
    const auto schedule = scheduler.schedule(graph, options);
    const auto run = coordination::execute_schedule(graph, schedule, {});
    EXPECT_EQ(run.deadline_misses, 0);
    EXPECT_NEAR(run.makespan_s, schedule.makespan_s, 1e-9);
}

TEST(Runtime, JitterCanMissTightDeadlines) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    coordination::Scheduler::Options options;
    options.objective = coordination::Scheduler::Objective::kMakespan;
    options.anneal = false;
    const auto graph = diamond_graph();
    const auto schedule = scheduler.schedule(graph, options);

    coordination::RuntimeOptions runtime;
    runtime.jitter_sigma = 0.3;
    runtime.deadline_s = schedule.makespan_s * 1.001;  // no headroom
    const double ratio =
        coordination::deadline_success_ratio(graph, schedule, runtime, 200);
    EXPECT_LT(ratio, 1.0);
    EXPECT_GT(ratio, 0.0);

    runtime.deadline_s = schedule.makespan_s * 3.0;  // ample headroom
    const double relaxed =
        coordination::deadline_success_ratio(graph, schedule, runtime, 200);
    EXPECT_GT(relaxed, ratio);
}

// -- glue ---------------------------------------------------------------------------

TEST(Glue, SequentialDriverListsTasksInTopologicalOrder) {
    const auto graph = diamond_graph();
    const auto text = coordination::generate_glue(
        graph, {}, platform::jetson_tx2(),
        coordination::GlueStyle::kSequential);
    const auto pos_a = text.find("a_fn();");
    const auto pos_d = text.find("d_fn();");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_d, std::string::npos);
    EXPECT_LT(pos_a, pos_d);
    EXPECT_NE(text.find("tp_probe_begin"), std::string::npos);
}

TEST(Glue, RtemsVariantWiresSemaphoresForDeps) {
    const auto gr712 = platform::gr712rc();
    const coordination::Scheduler scheduler(gr712);
    coordination::Scheduler::Options options;
    options.anneal = false;
    const auto graph = diamond_graph();
    const auto schedule = scheduler.schedule(graph, options);
    const auto text = coordination::generate_glue(
        graph, schedule, gr712, coordination::GlueStyle::kRtems);
    EXPECT_NE(text.find("rtems_semaphore_obtain(tp_sem_a"),
              std::string::npos);
    EXPECT_NE(text.find("CONFIGURE_MAXIMUM_TASKS 4"), std::string::npos);
}

TEST(Glue, PosixVariantPinsAffinity) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    coordination::Scheduler::Options options;
    options.anneal = false;
    const auto graph = diamond_graph();
    const auto schedule = scheduler.schedule(graph, options);
    const auto text = coordination::generate_glue(
        graph, schedule, tx2, coordination::GlueStyle::kPosix);
    EXPECT_NE(text.find("pthread_attr_setaffinity_np"), std::string::npos);
    EXPECT_NE(text.find("sem_wait(&tp_done_a"), std::string::npos);
    EXPECT_NE(text.find("tp_set_core_opp("), std::string::npos);
}

// -- contracts ----------------------------------------------------------------------

TEST(Contracts, ProofTreeVerifiesAndMatchesAnalyser) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];

    const auto proof = contracts::scale_to_seconds(
        contracts::build_time_proof_cycles(app.program, "pill_delta",
                                           core.model),
        core.opp(2).freq_hz);
    EXPECT_TRUE(contracts::verify_proof(proof));

    const wcet::Analyser analyser(app.program);
    const auto wcet = analyser.analyse("pill_delta", core, 2);
    EXPECT_NEAR(proof.value, wcet.time_s, 1e-12);
}

TEST(Contracts, EnergyProofMatchesAnalyser) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];
    const auto proof = contracts::build_energy_proof_joules(
        app.program, "pill_delta", core, 1,
        contracts::scale_to_seconds(
            contracts::build_time_proof_cycles(app.program, "pill_delta",
                                               core.model),
            core.opp(1).freq_hz));
    EXPECT_TRUE(contracts::verify_proof(proof));

    const energy::Analyser analyser(app.program);
    const auto result = analyser.analyse("pill_delta", core, 1);
    EXPECT_NEAR(proof.value, result.wcec_j,
                1e-9 * std::max(1.0, result.wcec_j));
}

TEST(Contracts, TamperedProofRejected) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];
    auto proof = contracts::build_time_proof_cycles(app.program,
                                                    "pill_delta", core.model);
    ASSERT_TRUE(contracts::verify_proof(proof));
    proof.value *= 0.5;  // claim a tighter bound than the proof supports
    EXPECT_FALSE(contracts::verify_proof(proof));
}

TEST(Contracts, CertificateChecksBudgets) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];
    contracts::ContractInput input;
    input.poi = "delta";
    input.function = "pill_delta";
    input.program = &app.program;
    input.core = &core;
    input.opp_index = 2;
    input.time_budget_s = 10.0;  // generous: holds
    input.energy_budget_j = 1e-12;  // impossible: fails
    const auto certificate =
        contracts::check_contracts("pill", "camera-pill", {input});
    ASSERT_EQ(certificate.results.size(), 2u);
    EXPECT_TRUE(certificate.results[0].holds);
    EXPECT_FALSE(certificate.results[1].holds);
    EXPECT_FALSE(certificate.all_hold());
    EXPECT_TRUE(contracts::verify_certificate(certificate));
    EXPECT_NE(certificate.to_text().find("FAIL"), std::string::npos);
}

TEST(Contracts, MeasuredEvidenceFlagged) {
    contracts::ContractInput input;
    input.poi = "t";
    input.function = "f";
    input.measured_only = true;
    input.measured_time_s = 0.001;
    input.time_budget_s = 0.01;
    const auto certificate = contracts::check_contracts("app", "tx2", {input});
    ASSERT_EQ(certificate.results.size(), 1u);
    EXPECT_TRUE(certificate.results[0].holds);
    EXPECT_TRUE(certificate.results[0].measured_only);
    EXPECT_FALSE(certificate.fully_static());
    EXPECT_TRUE(contracts::verify_certificate(certificate));
}

// -- end-to-end workflows --------------------------------------------------------------

TEST(PredictableWorkflowE2E, CameraPillGreenCertificate) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.compiler.population = 6;
    options.compiler.iterations = 6;
    options.scheduler.anneal_iterations = 100;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});

    EXPECT_TRUE(report.schedule.feasible);
    EXPECT_EQ(report.schedule.entries.size(), spec.tasks.size());
    EXPECT_TRUE(report.certificate.all_hold()) << report.certificate.to_text();
    EXPECT_TRUE(report.certificate.fully_static());
    EXPECT_TRUE(contracts::verify_certificate(report.certificate));
    EXPECT_FALSE(report.glue_code.empty());
    EXPECT_FALSE(report.fronts.empty());
    EXPECT_NE(report.summary().find("ALL CONTRACTS HOLD"),
              std::string::npos);
}

TEST(ComplexWorkflowE2E, UavTwoPassProducesMeasuredCertificate) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.profile_runs = 8;
    options.scheduler.anneal_iterations = 60;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});

    EXPECT_TRUE(report.schedule.feasible);
    EXPECT_FALSE(report.sequential_glue.empty());        // pass 1 artifact
    EXPECT_NE(report.sequential_glue.find("tp_probe_begin"),
              std::string::npos);
    EXPECT_FALSE(report.glue_code.empty());              // pass 2 artifact
    EXPECT_TRUE(report.certificate.all_hold()) << report.certificate.to_text();
    EXPECT_FALSE(report.certificate.fully_static());     // measured evidence
    EXPECT_TRUE(contracts::verify_certificate(report.certificate));
}

TEST(EngineFlow, DispatchesOnPlatformClass) {
    const auto pill = usecases::make_camera_pill_app();
    const auto uav = usecases::make_uav_app();
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal = false;
    core::ScenarioEngine engine;
    const auto pill_report = engine.run({.program = &pill.program,
                                         .platform = &pill.platform,
                                         .spec = csl::parse(pill.csl_source),
                                         .options = options});
    EXPECT_TRUE(pill_report.certificate.fully_static());

    const auto uav_report = engine.run({.program = &uav.program,
                                        .platform = &uav.platform,
                                        .spec = csl::parse(uav.csl_source),
                                        .options = options});
    EXPECT_FALSE(uav_report.certificate.fully_static());
}

// -- spec defects -----------------------------------------------------------------

struct SpecDefect {
    const char* name;
    bool on_uav;  ///< uav on apalis-tk1 (profiled flow), else pill (static)
    void (*inject)(csl::AppSpec& spec);
    const char* message;
};

const SpecDefect kSpecDefects[] = {
    {"pill/missing-entry", false,
     [](csl::AppSpec& spec) { spec.tasks.front().entry = "nope"; },
     "task 'capture' entry function 'nope' not found"},
    {"pill/unfit-class", false,
     [](csl::AppSpec& spec) { spec.tasks.front().core_class = "dsp"; },
     "task 'capture' fits no core class of camera-pill"},
    {"pill/no-tasks", false, [](csl::AppSpec& spec) { spec.tasks.clear(); },
     "app 'camera_pill' declares no tasks"},
    {"pill/duplicate-task", false,
     [](csl::AppSpec& spec) { spec.tasks.push_back(spec.tasks.front()); },
     "duplicate task 'capture'"},
    {"pill/unknown-dep", false,
     [](csl::AppSpec& spec) { spec.tasks[1].deps.push_back("ghost"); },
     "task 'delta' depends on unknown task 'ghost'"},
    {"uav/missing-entry", true,
     [](csl::AppSpec& spec) { spec.tasks.front().entry = "nope"; },
     "task 'capture' entry function 'nope' not found"},
    {"uav/unfit-class", true,
     [](csl::AppSpec& spec) { spec.tasks.front().core_class = "dsp"; },
     "task 'capture' fits no core class of apalis-tk1"},
    {"uav/no-tasks", true, [](csl::AppSpec& spec) { spec.tasks.clear(); },
     "app 'uav_detection' declares no tasks"},
    {"uav/duplicate-task", true,
     [](csl::AppSpec& spec) { spec.tasks.push_back(spec.tasks.front()); },
     "duplicate task 'capture'"},
    {"uav/unknown-dep", true,
     [](csl::AppSpec& spec) { spec.tasks[1].deps.push_back("ghost"); },
     "task 'resize' depends on unknown task 'ghost'"},
};

TEST(SpecDefects, BothFlowsRejectAtParseWithOneMessage) {
    const auto pill = usecases::make_camera_pill_app();
    const auto uav = usecases::make_uav_app("apalis-tk1");
    for (const auto& defect : kSpecDefects) {
        SCOPED_TRACE(defect.name);
        const auto& app = defect.on_uav ? uav : pill;
        auto spec = csl::parse(app.csl_source);
        defect.inject(spec);
        core::ScenarioEngine engine;
        try {
            (void)engine.run({.program = &app.program,
                              .platform = &app.platform,
                              .spec = spec});
            ADD_FAILURE() << "accepted a defective spec";
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), defect.message);
        }
        // The run failed before analyse: no analysis was looked up.
        EXPECT_EQ(engine.cache_stats().misses, 0u);
    }
}

}  // namespace
