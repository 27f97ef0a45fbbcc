// Deeper coordination-layer tests: task-graph validation, annealing
// behaviour, pinned schedule bytes, an allocation-free annealing loop,
// Gantt rendering, runtime error paths, version-choice lookups.
#include <gtest/gtest.h>

#include <algorithm>

#include "allocation_count.hpp"
#include "coordination/glue.hpp"
#include "coordination/runtime.hpp"
#include "coordination/scheduler.hpp"
#include "coordination/task_graph.hpp"
#include "support/fnv.hpp"
#include "support/rng.hpp"

namespace {

using namespace teamplay;
using coordination::Task;
using coordination::TaskGraph;
using coordination::VersionChoice;

TaskGraph chain(int n) {
    TaskGraph graph;
    graph.app_name = "chain";
    for (int i = 0; i < n; ++i) {
        Task task;
        task.name = "t" + std::to_string(i);
        task.entry_fn = task.name;
        if (i > 0) task.deps.push_back("t" + std::to_string(i - 1));
        task.versions[""] = {{0.01, 0.001, 0.0, 0, "only"}};
        graph.tasks.push_back(std::move(task));
    }
    return graph;
}

TEST(TaskGraphValidation, DetectsAllProblemClasses) {
    TaskGraph graph;
    Task a;
    a.name = "a";
    a.deps = {"missing", "a"};
    // no versions
    graph.tasks.push_back(a);
    graph.tasks.push_back(a);  // same name twice
    const auto errors = graph.validate();
    bool unknown_dep = false;
    bool self_dep = false;
    bool no_versions = false;
    bool duplicate = false;
    for (const auto& error : errors) {
        unknown_dep |= error.find("unknown task") != std::string::npos;
        self_dep |= error.find("itself") != std::string::npos;
        no_versions |= error.find("no versions") != std::string::npos;
        duplicate |= error == "duplicate task 'a'";
    }
    EXPECT_TRUE(unknown_dep);
    EXPECT_TRUE(self_dep);
    EXPECT_TRUE(no_versions);
    EXPECT_TRUE(duplicate);
}

TEST(TaskGraphValidation, NonPositiveVersionTimesFlagged) {
    TaskGraph graph;
    Task a;
    a.name = "a";
    a.versions[""] = {{0.0, 0.001, 0.0, 0, "bad"}};
    graph.tasks.push_back(a);
    EXPECT_FALSE(graph.validate().empty());
}

TEST(TaskGraphValidation, CycleDetected) {
    TaskGraph graph;
    Task a;
    a.name = "a";
    a.deps = {"b"};
    a.versions[""] = {{0.01, 0.0, 0.0, 0, ""}};
    Task b;
    b.name = "b";
    b.deps = {"a"};
    b.versions[""] = {{0.01, 0.0, 0.0, 0, ""}};
    graph.tasks.push_back(a);
    graph.tasks.push_back(b);
    EXPECT_THROW((void)graph.topological_order(), std::runtime_error);
    bool cycle = false;
    for (const auto& error : graph.validate())
        cycle |= error.find("cycle") != std::string::npos;
    EXPECT_TRUE(cycle);
}

TEST(TaskGraphValidation, UnknownDependencyIsNotACycle) {
    TaskGraph graph;
    Task a;
    a.name = "a";
    a.deps = {"ghost"};
    a.versions[""] = {{0.01, 0.0, 0.0, 0, ""}};
    graph.tasks.push_back(a);
    EXPECT_EQ(graph.validate(), std::vector<std::string>{
                                    "task 'a' depends on unknown task 'ghost'"});
    // topological_order still names the unknown dependency.
    try {
        (void)graph.topological_order();
        ADD_FAILURE() << "topological_order accepted an unknown dependency";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "unknown dependency: ghost");
    }

    // A real b <-> c cycle beside the unknown dependency is still a cycle.
    Task b;
    b.name = "b";
    b.deps = {"c"};
    b.versions[""] = {{0.01, 0.0, 0.0, 0, ""}};
    Task c = b;
    c.name = "c";
    c.deps = {"b"};
    graph.tasks.push_back(b);
    graph.tasks.push_back(c);
    EXPECT_EQ(graph.validate(),
              (std::vector<std::string>{
                  "task 'a' depends on unknown task 'ghost'",
                  "dependency cycle detected"}));
}

TEST(TaskGraphValidation, TopologicalOrderRespectsDeps) {
    const auto graph = chain(6);
    const auto order = graph.topological_order();
    ASSERT_EQ(order.size(), 6u);
    std::vector<std::size_t> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    for (std::size_t i = 1; i < 6; ++i)
        EXPECT_LT(position[i - 1], position[i]);
}

TEST(TaskGraph, VersionsForFallsBackToWildcard) {
    Task task;
    task.versions[""] = {{0.01, 0.0, 0.0, 0, "any"}};
    task.versions["gpu"] = {{0.002, 0.0, 0.0, 0, "gpu"}};
    EXPECT_EQ(task.versions_for("gpu")->front().note, "gpu");
    EXPECT_EQ(task.versions_for("big")->front().note, "any");
    EXPECT_TRUE(task.runs_on("anything"));
    Task constrained;
    constrained.versions["fpga"] = {{0.01, 0.0, 0.0, 0, ""}};
    EXPECT_FALSE(constrained.runs_on("big"));
    EXPECT_EQ(constrained.versions_for("big"), nullptr);
}

TEST(Scheduler, ChainSerialisesOnSingleCore) {
    const auto nucleo = platform::nucleo_f091();
    const coordination::Scheduler scheduler(nucleo);
    const auto schedule = scheduler.schedule(chain(5), {});
    EXPECT_NEAR(schedule.makespan_s, 0.05, 1e-12);
    // Entries back-to-back.
    double previous_finish = 0.0;
    std::vector<const coordination::ScheduleEntry*> ordered;
    for (const auto& entry : schedule.entries) ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto* a, const auto* b) {
                  return a->start_s < b->start_s;
              });
    for (const auto* entry : ordered) {
        EXPECT_NEAR(entry->start_s, previous_finish, 1e-12);
        previous_finish = entry->finish_s;
    }
}

TEST(Scheduler, AnnealingNeverWorseThanGreedy) {
    support::Rng rng(77);
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    // Random multi-version graph.
    TaskGraph graph;
    for (int i = 0; i < 10; ++i) {
        Task task;
        task.name = "t" + std::to_string(i);
        if (i > 2) task.deps.push_back("t" + std::to_string(i - 3));
        const double base = rng.uniform(0.002, 0.01);
        task.versions[""] = {{base, base * 40.0, 0.0, 2, "fast"},
                             {base * 2.0, base * 18.0, 0.0, 0, "frugal"}};
        graph.tasks.push_back(std::move(task));
    }
    coordination::Scheduler::Options greedy;
    greedy.deadline_s = 0.2;
    greedy.anneal = false;
    const auto schedule_greedy = scheduler.schedule(graph, greedy);
    coordination::Scheduler::Options annealed = greedy;
    annealed.anneal = true;
    annealed.anneal_iterations = 300;
    const auto schedule_annealed = scheduler.schedule(graph, annealed);

    ASSERT_TRUE(schedule_greedy.feasible);
    ASSERT_TRUE(schedule_annealed.feasible);
    EXPECT_LE(schedule_annealed.platform_energy_j(tx2, 0.2),
              schedule_greedy.platform_energy_j(tx2, 0.2) * (1.0 + 1e-9));
}

// -- pinned output ----------------------------------------------------------

/// Seeded random graph for `board`: 6-11 tasks with forward dependencies,
/// versions keyed by "" (any core), by one of the board's classes, or both;
/// a few per-task deadlines; and two leaf twins with one version list, so
/// the priority sort meets a rank tie.
TaskGraph pinned_graph(const platform::Platform& board, std::uint64_t seed) {
    support::Rng rng(seed);
    std::vector<std::string> classes;
    for (const auto& core : board.cores)
        if (std::find(classes.begin(), classes.end(), core.core_class) ==
            classes.end())
            classes.push_back(core.core_class);
    const auto versions = [&rng](double scale) {
        std::vector<VersionChoice> list(1 + rng.below(3));
        for (auto& version : list) {
            version.time_s = scale * rng.uniform(1e-3, 1e-2);
            version.energy_j = scale * rng.uniform(1e-4, 5e-3);
            version.opp_index = rng.below(3);
        }
        return list;
    };

    TaskGraph graph;
    graph.app_name = "pinned";
    const auto n = 6 + rng.below(6);
    for (std::uint64_t i = 0; i < n; ++i) {
        Task task;
        task.name = "t" + std::to_string(i);
        for (std::uint64_t j = 0; j < i; ++j)
            if (rng.chance(0.3)) task.deps.push_back("t" + std::to_string(j));
        const auto keys = rng.below(3);  // 0: "" only, 1: a class, 2: both
        if (keys != 1) task.versions[""] = versions(1.0);
        if (keys != 0)
            task.versions[classes[rng.below(classes.size())]] = versions(0.5);
        if (rng.chance(0.2)) task.deadline_s = rng.uniform(0.02, 0.06);
        graph.tasks.push_back(std::move(task));
    }
    Task twin;
    twin.name = "twin_a";
    twin.deps = {"t0"};
    twin.versions[""] = versions(1.0);
    graph.tasks.push_back(twin);
    twin.name = "twin_b";
    graph.tasks.push_back(twin);
    return graph;
}

void mix_schedule(support::Fnv1a& fp,
                  const coordination::Schedule& schedule) {
    for (const auto& entry : schedule.entries) {
        fp.mix(entry.task)
            .mix(std::uint64_t{entry.core})
            .mix(std::uint64_t{entry.version})
            .mix(entry.core_class)
            .mix(entry.start_s)
            .mix(entry.finish_s)
            .mix(entry.dynamic_energy_j)
            .mix(std::uint64_t{entry.opp_index});
    }
    fp.mix(schedule.makespan_s).mix(std::uint64_t{schedule.feasible});
}

// FNV-64 digests of the exact schedule bits per (board, deadline regime),
// each folding scheduler seeds 1-8 under both objectives.  Any change to
// the annealer's draw sequence, its floating-point order or its
// tie-breaking moves at least one of them.
TEST(Scheduler, PinnedOutputDigests) {
    struct Board {
        platform::Platform platform;
        std::uint64_t digests[3];  ///< no deadline, tight, loose
    };
    const Board boards[] = {
        {platform::nucleo_f091(),
         {0xc7f2df62f868306aULL, 0x1e3d5bc8ecd73891ULL,
          0xc7f2df62f868306aULL}},
        {platform::gr712rc(),
         {0xffdeeb5677d91d38ULL, 0x0185b2572fdbdd63ULL,
          0x0fb944c28632a29aULL}},
        {platform::apalis_tk1(),
         {0x33fbc1aabe67af3bULL, 0x9c9b3c457cfb28aaULL,
          0x69b48a7719f25df6ULL}},
        {platform::jetson_tx2(),
         {0x64b1358e4cec7e9eULL, 0xd78796a7bea81fb3ULL,
          0xa42c53671d1e750cULL}},
    };
    using Objective = coordination::Scheduler::Objective;
    for (const auto& board : boards) {
        SCOPED_TRACE(board.platform.name);
        const coordination::Scheduler scheduler(board.platform);
        for (int regime = 0; regime < 3; ++regime) {
            support::Fnv1a fp;
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                const auto graph = pinned_graph(board.platform, seed);
                coordination::Scheduler::Options options;
                options.seed = seed;
                if (regime > 0) {
                    coordination::Scheduler::Options fastest;
                    fastest.objective = Objective::kMakespan;
                    const double makespan =
                        scheduler.schedule(graph, fastest).makespan_s;
                    options.deadline_s = makespan * (regime == 1 ? 1.1 : 3.0);
                }
                for (const auto objective :
                     {Objective::kEnergy, Objective::kMakespan}) {
                    options.objective = objective;
                    mix_schedule(fp, scheduler.schedule(graph, options));
                }
            }
            EXPECT_EQ(fp.value, board.digests[regime]) << "regime " << regime;
        }
    }
}

// The plan and the buffers are set up before the first trial: 400 trials
// allocate exactly what none do.
TEST(Scheduler, AnnealingLoopAllocatesNothing) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    const auto graph = pinned_graph(tx2, 3);
    coordination::Scheduler::Options options;
    options.objective = coordination::Scheduler::Objective::kMakespan;
    options.deadline_s = 1.1 * scheduler.schedule(graph, options).makespan_s;
    options.objective = coordination::Scheduler::Objective::kEnergy;
    const auto allocations = [&](int iterations) {
        options.anneal_iterations = iterations;
        const std::size_t before = g_allocations;
        (void)scheduler.schedule(graph, options);
        return g_allocations - before;
    };
    EXPECT_EQ(allocations(400), allocations(0));
}

TEST(Scheduler, PowerManagedIdleBeatsBusyWait) {
    const auto gr712 = platform::gr712rc();
    const coordination::Scheduler scheduler(gr712);
    const auto schedule = scheduler.schedule(chain(3), {});
    const double managed =
        schedule.platform_energy_j(gr712, 1.0, /*power_managed=*/true);
    const double busy_wait =
        schedule.platform_energy_j(gr712, 1.0, /*power_managed=*/false);
    EXPECT_LT(managed, busy_wait);
}

TEST(Schedule, GanttRendersOneRowPerCore) {
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);
    const auto schedule = scheduler.schedule(chain(4), {});
    const auto art = schedule.gantt(tx2, 40);
    // One row per core plus the axis.
    int rows = 0;
    for (const char c : art)
        if (c == '\n') ++rows;
    EXPECT_EQ(rows, static_cast<int>(tx2.cores.size()) + 1);
    EXPECT_NE(art.find('t'), std::string::npos);  // task marks present
}

TEST(Schedule, GanttHandlesEmptySchedule) {
    coordination::Schedule empty;
    EXPECT_EQ(empty.gantt(platform::nucleo_f091()), "(empty schedule)\n");
}

TEST(Schedule, EntryForLookup) {
    const auto nucleo = platform::nucleo_f091();
    const coordination::Scheduler scheduler(nucleo);
    const auto schedule = scheduler.schedule(chain(2), {});
    EXPECT_NE(schedule.entry_for("t0"), nullptr);
    EXPECT_EQ(schedule.entry_for("zzz"), nullptr);
}

TEST(Runtime, UnknownTaskInScheduleThrows) {
    coordination::Schedule schedule;
    coordination::ScheduleEntry entry;
    entry.task = "ghost";
    entry.finish_s = 0.01;
    schedule.entries.push_back(entry);
    const TaskGraph graph = chain(1);
    EXPECT_THROW(
        (void)coordination::execute_schedule(graph, schedule, {}),
        std::runtime_error);
}

TEST(Runtime, DependencyOrderViolationThrows) {
    // Schedule listing the dependent before its producer, with start times
    // that sort it first.
    TaskGraph graph = chain(2);
    coordination::Schedule schedule;
    coordination::ScheduleEntry late;
    late.task = "t1";  // depends on t0
    late.start_s = 0.0;
    late.finish_s = 0.01;
    late.core = 0;
    schedule.entries.push_back(late);
    coordination::ScheduleEntry early;
    early.task = "t0";
    early.start_s = 0.02;
    early.finish_s = 0.03;
    early.core = 0;
    schedule.entries.push_back(early);
    EXPECT_THROW(
        (void)coordination::execute_schedule(graph, schedule, {}),
        std::runtime_error);
}

TEST(Runtime, SuccessRatioBoundsAndMonotonicity) {
    const auto nucleo = platform::nucleo_f091();
    const coordination::Scheduler scheduler(nucleo);
    const auto graph = chain(3);
    const auto schedule = scheduler.schedule(graph, {});

    coordination::RuntimeOptions options;
    options.jitter_sigma = 0.2;
    options.deadline_s = schedule.makespan_s;  // zero headroom
    const double tight =
        coordination::deadline_success_ratio(graph, schedule, options, 100);
    options.deadline_s = schedule.makespan_s * 10.0;
    const double loose =
        coordination::deadline_success_ratio(graph, schedule, options, 100);
    EXPECT_GE(tight, 0.0);
    EXPECT_LE(tight, 1.0);
    EXPECT_GE(loose, tight);
    EXPECT_NEAR(loose, 1.0, 1e-12);
}

TEST(Rta, SingleTaskAlwaysSchedulableUpToDeadline) {
    for (double wcet = 0.001; wcet < 0.01; wcet += 0.002) {
        const coordination::PeriodicTask task{"t", wcet, 0.01, 0.01};
        const auto result = coordination::response_time_analysis({task});
        EXPECT_TRUE(result.schedulable);
        EXPECT_NEAR(result.response_times[0], wcet, 1e-12);
    }
}

TEST(Rta, ExactResponseTimeKnownExample) {
    // Classic example: C=(1,2,3), T=(4,10,20): R3 = 3+2*C1+1*C2 -> iterate.
    std::vector<coordination::PeriodicTask> tasks = {
        {"t1", 1.0, 4.0, 0.0},
        {"t2", 2.0, 10.0, 0.0},
        {"t3", 3.0, 20.0, 0.0},
    };
    const auto result = coordination::response_time_analysis(tasks);
    ASSERT_TRUE(result.schedulable);
    EXPECT_NEAR(result.response_times[0], 1.0, 1e-9);
    EXPECT_NEAR(result.response_times[1], 3.0, 1e-9);
    // R3: 3 + ceil(R/4)*1 + ceil(R/10)*2; fixpoint at R=10:
    // 3 + 3*1 + 1*2 = 8 -> 3 + 2 + 2 = ... converges to 8? iterate:
    // R0=3 -> 3+1+2=6 -> 3+2+2=7 -> 3+2+2=7. Fixpoint 7.
    EXPECT_NEAR(result.response_times[2], 7.0, 1e-9);
}

TEST(Glue, SanitisesAwkwardIdentifiers) {
    TaskGraph graph;
    Task task;
    task.name = "weird task-name";
    task.entry_fn = "entry.with.dots";
    task.versions[""] = {{0.01, 0.0, 0.0, 0, ""}};
    graph.tasks.push_back(task);
    const auto text = coordination::generate_glue(
        graph, {}, platform::nucleo_f091(),
        coordination::GlueStyle::kSequential);
    EXPECT_NE(text.find("entry_with_dots();"), std::string::npos);
    EXPECT_EQ(text.find("entry.with.dots();"), std::string::npos);
}

}  // namespace
