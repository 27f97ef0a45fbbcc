// Differential oracle for the trace execution tier (DESIGN.md §9).
//
// The pre-decoded threaded-dispatch backend must be *bit-identical* to the
// tree-walking interpreter: same cycles, energies, instruction/class
// counts, return values, power-trace samples and error surface, on every
// app, core and operating point.  These tests sweep all five use-case
// programs across their platforms' cores and OPPs and compare every
// RunResult field with exact equality — any divergence in lowering,
// charge ordering or RNG consumption shows up as a failure here, not as a
// subtly wrong certificate downstream.  The same holds for the lockstep
// entry point `run_seeds` against one fresh machine per seed, and for its
// two owners, the profiler campaign and the complex-core compiler.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <typeindex>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "ir/builder.hpp"
#include "profiler/pow_profiler.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

// -- differential sweep -------------------------------------------------------

/// Either a completed run or the error it threw — errors are part of the
/// contract the trace tier must reproduce, message bytes included.
struct Outcome {
    std::optional<sim::RunResult> result;
    std::string error;
};

Outcome run_once(const ir::Program& program, const platform::Core& core,
                 std::size_t opp, std::uint64_t seed, sim::SimBackend backend,
                 const std::shared_ptr<sim::TraceCache>& cache,
                 const std::string& entry,
                 const std::vector<ir::Word>& memory_image,
                 const std::vector<ir::Word>& args, bool record_trace = true) {
    sim::Machine machine(program, core, opp, seed,
                         sim::SimOptions{backend, cache});
    if (!memory_image.empty()) machine.poke_span(0, memory_image);
    Outcome outcome;
    try {
        outcome.result = machine.run(entry, args, record_trace);
    } catch (const std::exception& error) {
        outcome.error = error.what();
        if (outcome.error.empty()) outcome.error = "(empty message)";
    }
    return outcome;
}

/// Exact-equality comparison of two outcomes; `context` names the sweep
/// point so a failure is attributable.
void expect_identical(const Outcome& interp, const Outcome& trace,
                      const std::string& context) {
    ASSERT_EQ(interp.error, trace.error) << context;
    ASSERT_EQ(interp.result.has_value(), trace.result.has_value()) << context;
    if (!interp.result.has_value()) return;
    const auto& a = *interp.result;
    const auto& b = *trace.result;
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.time_s, b.time_s) << context;
    EXPECT_EQ(a.dynamic_energy_j, b.dynamic_energy_j) << context;
    EXPECT_EQ(a.static_energy_j, b.static_energy_j) << context;
    EXPECT_EQ(a.ret_value, b.ret_value) << context;
    EXPECT_EQ(a.instrs_executed, b.instrs_executed) << context;
    EXPECT_EQ(a.class_counts, b.class_counts) << context;
    ASSERT_EQ(a.power_trace.size(), b.power_trace.size()) << context;
    for (std::size_t i = 0; i < a.power_trace.size(); ++i) {
        ASSERT_EQ(a.power_trace[i], b.power_trace[i])
            << context << " power-trace sample " << i;
    }
}

/// Sweep one app: every task entry on every core at every OPP, once with
/// zeroed memory and once with a seeded random image, interpreter versus
/// trace tier with equal machine seeds.
void sweep_app(const usecases::UseCaseApp& app) {
    const auto spec = csl::parse(app.csl_source);
    const auto cache = std::make_shared<sim::TraceCache>();
    support::Rng stager(0xD1FFEu);

    std::vector<ir::Word> random_image(
        std::min<std::size_t>(app.program.memory_words, 512));
    for (auto& word : random_image)
        word = static_cast<ir::Word>(stager.next() % 97) - 13;

    for (const auto& task : spec.tasks) {
        const ir::Function* fn = app.program.find(task.entry);
        ASSERT_NE(fn, nullptr) << app.name << "/" << task.entry;
        const std::vector<ir::Word> args(
            static_cast<std::size_t>(fn->param_count), 0);
        for (std::size_t c = 0; c < app.platform.cores.size(); ++c) {
            const auto& core = app.platform.cores[c];
            for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
                const std::vector<ir::Word>* const images[2] = {
                    nullptr, &random_image};
                for (const auto* image : images) {
                    const std::vector<ir::Word> empty;
                    const auto& memory = image ? *image : empty;
                    const std::uint64_t seed = 11 * (c + 1) + opp;
                    const std::string context =
                        app.name + "/" + task.entry + " core=" + core.name +
                        " opp=" + std::to_string(opp) +
                        (image ? " random-image" : " zero-image");
                    expect_identical(
                        run_once(app.program, core, opp, seed,
                                 sim::SimBackend::kInterp, nullptr,
                                 task.entry, memory, args),
                        run_once(app.program, core, opp, seed,
                                 sim::SimBackend::kTrace, cache, task.entry,
                                 memory, args),
                        context);
                }
            }
        }
    }
    // Traces are OPP-invariant and model-keyed: the sweep above must have
    // compiled at most one trace per (entry, distinct core model).
    const auto stats = cache->stats();
    EXPECT_GT(stats.hits, 0u) << app.name;
    EXPECT_LE(stats.misses,
              spec.tasks.size() * app.platform.cores.size())
        << app.name;
}

TEST(SimTraceDifferential, CameraPill) {
    sweep_app(usecases::make_camera_pill_app());
}

TEST(SimTraceDifferential, Space) { sweep_app(usecases::make_space_app()); }

TEST(SimTraceDifferential, Uav) {
    sweep_app(usecases::make_uav_app("apalis-tk1"));
}

TEST(SimTraceDifferential, Rover) {
    sweep_app(usecases::make_rover_app("apalis-tk1"));
}

TEST(SimTraceDifferential, Parking) {
    sweep_app(usecases::make_parking_app(true));
}

// -- synthetic semantics edges ------------------------------------------------

ir::Program make_single(ir::Function fn) {
    ir::Program program;
    program.add(std::move(fn));
    return program;
}

const platform::Platform& nucleo() {
    static const platform::Platform p = platform::nucleo_f091();
    return p;
}

TEST(SimTrace, DynamicLoopAboveBoundThrowsIdentically) {
    ir::FunctionBuilder b("f", 1);
    (void)b.dynamic_loop_begin(b.param(0), 8);
    b.loop_end();
    const auto program = make_single(b.build());
    const std::vector<ir::Word> args{9};
    const auto interp =
        run_once(program, nucleo().cores[0], 0, 1, sim::SimBackend::kInterp,
                 nullptr, "f", {}, args);
    const auto trace =
        run_once(program, nucleo().cores[0], 0, 1, sim::SimBackend::kTrace,
                 nullptr, "f", {}, args);
    EXPECT_FALSE(interp.error.empty());
    expect_identical(interp, trace, "dynamic-loop-bound");
}

TEST(SimTrace, OutOfBoundsLoadThrowsIdentically) {
    ir::FunctionBuilder b("f", 0);
    (void)b.load(b.imm(static_cast<ir::Word>(1) << 40));
    const auto program = make_single(b.build());
    const auto interp = run_once(program, nucleo().cores[0], 0, 1,
                                 sim::SimBackend::kInterp, nullptr, "f", {},
                                 {});
    const auto trace = run_once(program, nucleo().cores[0], 0, 1,
                                sim::SimBackend::kTrace, nullptr, "f", {},
                                {});
    EXPECT_FALSE(interp.error.empty());
    expect_identical(interp, trace, "oob-load");
}

TEST(SimTrace, InstructionBudgetAbortsIdentically) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(1000000);
    (void)b.add(i, i);
    b.loop_end();
    const auto program = make_single(b.build());
    Outcome outcomes[2];
    const sim::SimBackend backends[2] = {sim::SimBackend::kInterp,
                                         sim::SimBackend::kTrace};
    for (int k = 0; k < 2; ++k) {
        sim::Machine machine(program, nucleo().cores[0], 0, 1,
                             sim::SimOptions{backends[k], nullptr});
        machine.set_instruction_budget(1000);
        try {
            outcomes[k].result = machine.run("f", {}, true);
        } catch (const std::exception& error) {
            outcomes[k].error = error.what();
        }
    }
    EXPECT_FALSE(outcomes[0].error.empty());
    expect_identical(outcomes[0], outcomes[1], "budget");
}

TEST(SimTrace, ArgumentCountMismatchNamesExpectedAndGot) {
    ir::FunctionBuilder b("f", 2);
    const auto program = make_single(b.build());
    for (const auto backend :
         {sim::SimBackend::kInterp, sim::SimBackend::kTrace}) {
        sim::Machine machine(program, nucleo().cores[0], 0, 1,
                             sim::SimOptions{backend, nullptr});
        try {
            (void)machine.run("f", std::vector<ir::Word>{1});
            FAIL() << "expected invalid_argument";
        } catch (const std::invalid_argument& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("expected 2"), std::string::npos) << what;
            EXPECT_NE(what.find("got 1"), std::string::npos) << what;
        }
    }
}

TEST(SimTrace, UndefinedCalleeFallsBackToInterpreterErrorSurface) {
    ir::FunctionBuilder b("f", 0);
    (void)b.call("missing", {});
    const auto program = make_single(b.build());
    // Unlowerable: compile reports null, the machine falls back to the
    // interpreter, and the runtime error matches the reference tier.
    EXPECT_EQ(sim::TraceCompiler::compile(program, "f",
                                          nucleo().cores[0].model),
              nullptr);
    const auto interp = run_once(program, nucleo().cores[0], 0, 1,
                                 sim::SimBackend::kInterp, nullptr, "f", {},
                                 {});
    const auto trace = run_once(program, nucleo().cores[0], 0, 1,
                                sim::SimBackend::kTrace, nullptr, "f", {},
                                {});
    EXPECT_NE(interp.error.find("missing"), std::string::npos);
    expect_identical(interp, trace, "undefined-callee");
}

TEST(SimTrace, OverflowingArithmeticWrapsIdentically) {
    // INT64_MIN / -1 and its kin wrap (ir/instr.hpp) rather than trap; an
    // address sum that wraps negative is an ordinary out-of-bounds fault.
    constexpr ir::Word kMin = std::numeric_limits<ir::Word>::min();
    constexpr ir::Word kMax = std::numeric_limits<ir::Word>::max();
    ir::Program program;
    program.memory_words = 16;
    ir::FunctionBuilder div("div", 2);
    div.ret(div.div(div.param(0), div.param(1)));
    program.add(div.build());
    ir::FunctionBuilder rem("rem", 2);
    rem.ret(rem.rem(rem.param(0), rem.param(1)));
    program.add(rem.build());
    ir::FunctionBuilder neg("neg", 1);
    neg.ret(neg.neg(neg.param(0)));
    program.add(neg.build());
    ir::FunctionBuilder abs("abs", 1);
    abs.ret(abs.sabs(abs.param(0)));
    program.add(abs.build());
    ir::FunctionBuilder load("load", 1);
    load.ret(load.load(load.param(0), 1));
    program.add(load.build());

    struct Case {
        std::string entry;
        std::vector<ir::Word> args;
        std::optional<ir::Word> ret;  ///< nullopt: the run faults
    };
    const Case cases[] = {{"div", {kMin, -1}, kMin}, {"rem", {kMin, -1}, 0},
                          {"neg", {kMin}, kMin},     {"abs", {kMin}, kMin},
                          {"load", {kMax}, std::nullopt}};
    const auto tk1 = platform::apalis_tk1();
    for (const auto* core : {&nucleo().cores[0], &tk1.cores[0]}) {
        for (const auto& c : cases) {
            const std::string context = core->name + "/" + c.entry;
            const auto interp =
                run_once(program, *core, 0, 7, sim::SimBackend::kInterp,
                         nullptr, c.entry, {}, c.args);
            const auto trace =
                run_once(program, *core, 0, 7, sim::SimBackend::kTrace,
                         nullptr, c.entry, {}, c.args);
            expect_identical(interp, trace, context);
            if (!c.ret) {
                EXPECT_FALSE(interp.error.empty()) << context;
                continue;
            }
            ASSERT_TRUE(interp.result.has_value()) << context << interp.error;
            EXPECT_EQ(interp.result->ret_value, *c.ret) << context;
        }
    }
}

// -- cache accounting ---------------------------------------------------------

TEST(SimTraceCache, HitMissAndOppInvariance) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    const auto& entry = spec.tasks.front().entry;
    const auto cache = std::make_shared<sim::TraceCache>();
    const auto& core = app.platform.cores.front();

    // One compile serves every OPP: the key is (structure, model), never
    // the operating point.
    for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
        sim::Machine machine(app.program, core, opp, 1,
                             sim::SimOptions{sim::SimBackend::kTrace, cache});
        EXPECT_NE(machine.resolve_trace(entry), nullptr);
    }
    auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, core.opps.size() - 1);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hit_ratio(),
                     static_cast<double>(core.opps.size() - 1) /
                         static_cast<double>(core.opps.size()));

    // Per-machine memoisation: a second resolve on the same machine never
    // consults the cache again.
    sim::Machine machine(app.program, core, 0, 1,
                         sim::SimOptions{sim::SimBackend::kTrace, cache});
    (void)machine.resolve_trace(entry);
    (void)machine.resolve_trace(entry);
    EXPECT_EQ(cache->stats().hits, stats.hits + 1);
}

TEST(SimTraceCache, SharesTracesAcrossIsomorphicPrograms) {
    // The same kernel body under two different entry names in two different
    // programs: the canonical structural fingerprint erases naming, so the
    // second program reuses the first one's trace.
    const auto build = [](const std::string& name) {
        ir::FunctionBuilder b(name, 1);
        const auto i = b.loop_begin(10);
        (void)b.mul(i, b.param(0));
        b.loop_end();
        b.ret(b.param(0));
        return make_single(b.build());
    };
    const auto first = build("alpha");
    const auto second = build("beta");
    const auto cache = std::make_shared<sim::TraceCache>();
    const auto& core = nucleo().cores[0];

    sim::Machine m1(first, core, 0, 1,
                    sim::SimOptions{sim::SimBackend::kTrace, cache});
    sim::Machine m2(second, core, 0, 1,
                    sim::SimOptions{sim::SimBackend::kTrace, cache});
    EXPECT_NE(m1.resolve_trace("alpha"), nullptr);
    EXPECT_NE(m2.resolve_trace("beta"), nullptr);
    const auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // The shared trace still produces the right answers for both programs.
    EXPECT_EQ(m1.run("alpha", std::vector<ir::Word>{7}).ret_value, 7);
    EXPECT_EQ(m2.run("beta", std::vector<ir::Word>{9}).ret_value, 9);
}

TEST(SimTraceCache, EvictsColdTracesBeyondBudget) {
    const auto cache =
        std::make_shared<sim::TraceCache>(sim::TraceCache::Budget{1});
    const auto& core = nucleo().cores[0];
    const auto make_distinct = [](int loops) {
        ir::FunctionBuilder b("f", 0);
        const auto i = b.loop_begin(loops);
        (void)b.add(i, i);
        b.loop_end();
        ir::Program program;
        program.add(b.build());
        return program;
    };
    const auto p1 = make_distinct(3);
    const auto p2 = make_distinct(5);
    EXPECT_NE(cache->get_or_compile(p1, "f", core.model), nullptr);
    EXPECT_NE(cache->get_or_compile(p2, "f", core.model), nullptr);
    auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    // p1 was evicted: resolving it again is a fresh miss.
    EXPECT_NE(cache->get_or_compile(p1, "f", core.model), nullptr);
    EXPECT_EQ(cache->stats().misses, 3u);
}

// -- lockstep seeds -----------------------------------------------------------

/// Runs per profiling campaign in the benchmark's cold sweep.
constexpr std::size_t kCampaignSeeds = 15;

/// `run_seeds` on one machine over `memory_image`, one Outcome per seed: a
/// throw is every seed's outcome.
std::vector<Outcome> run_lockstep(const ir::Program& program,
                                  const platform::Core& core, std::size_t opp,
                                  sim::SimBackend backend,
                                  const std::string& entry,
                                  const std::vector<ir::Word>& memory_image,
                                  const std::vector<ir::Word>& args,
                                  const std::vector<std::uint64_t>& seeds) {
    sim::Machine machine(program, core, opp, /*seed=*/1,
                         sim::SimOptions{backend, nullptr});
    if (!memory_image.empty()) machine.poke_span(0, memory_image);
    std::vector<Outcome> outcomes(seeds.size());
    try {
        const auto results = machine.run_seeds(entry, args, seeds);
        EXPECT_EQ(results.size(), seeds.size());
        for (std::size_t i = 0; i < results.size() && i < seeds.size(); ++i)
            outcomes[i].result = results[i];
    } catch (const std::exception& error) {
        for (auto& outcome : outcomes) outcome.error = error.what();
    }
    return outcomes;
}

/// Every task entry of `app` on every core at every OPP, from a seeded
/// random memory image (so a run that writes memory would leak into the
/// next seed's if the image were not restored): `run_seeds` on both tiers
/// against one fresh interpreter machine per seed.
void sweep_lockstep(const usecases::UseCaseApp& app) {
    const auto spec = csl::parse(app.csl_source);
    support::Rng stager(0x5EEDu);
    std::vector<ir::Word> image(
        std::min<std::size_t>(app.program.memory_words, 512));
    for (auto& word : image)
        word = static_cast<ir::Word>(stager.next() % 97) - 13;
    std::vector<std::uint64_t> seeds(kCampaignSeeds);
    for (auto& seed : seeds) seed = stager.next();

    for (const auto& task : spec.tasks) {
        const ir::Function* fn = app.program.find(task.entry);
        ASSERT_NE(fn, nullptr) << app.name << "/" << task.entry;
        const std::vector<ir::Word> args(
            static_cast<std::size_t>(fn->param_count), 0);
        for (const auto& core : app.platform.cores) {
            for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
                std::vector<Outcome> fresh;
                for (const auto seed : seeds)
                    fresh.push_back(run_once(app.program, core, opp, seed,
                                             sim::SimBackend::kInterp,
                                             nullptr, task.entry, image, args,
                                             /*record_trace=*/false));
                for (const auto backend :
                     {sim::SimBackend::kInterp, sim::SimBackend::kTrace}) {
                    const auto lockstep =
                        run_lockstep(app.program, core, opp, backend,
                                     task.entry, image, args, seeds);
                    for (std::size_t i = 0; i < seeds.size(); ++i)
                        expect_identical(
                            fresh[i], lockstep[i],
                            app.name + "/" + task.entry + " core=" +
                                core.name + " opp=" + std::to_string(opp) +
                                (backend == sim::SimBackend::kTrace
                                     ? " trace"
                                     : " interp") +
                                " seed#" + std::to_string(i));
                }
            }
        }
    }
}

TEST(SimTraceLockstep, CameraPill) {
    sweep_lockstep(usecases::make_camera_pill_app());
}

TEST(SimTraceLockstep, Space) { sweep_lockstep(usecases::make_space_app()); }

TEST(SimTraceLockstep, Uav) {
    sweep_lockstep(usecases::make_uav_app("apalis-tk1"));
}

TEST(SimTraceLockstep, Rover) {
    sweep_lockstep(usecases::make_rover_app("apalis-tk1"));
}

TEST(SimTraceLockstep, Parking) {
    sweep_lockstep(usecases::make_parking_app(/*on_m0=*/false));
}

const platform::Core& cortex_a15() {
    static const platform::Platform p = platform::apalis_tk1();
    return p.cores.front();
}

/// On a complex core, `run_seeds` must raise what a per-seed `run` raises:
/// same exception type, same text, on both tiers.
void expect_lockstep_error(const ir::Program& program,
                           const std::vector<ir::Word>& args,
                           std::int64_t budget, const std::string& context) {
    const std::vector<std::uint64_t> seeds{3, 4, 5};
    ASSERT_FALSE(cortex_a15().model.predictable);
    for (const auto backend :
         {sim::SimBackend::kInterp, sim::SimBackend::kTrace}) {
        std::optional<std::type_index> expected_type;
        std::string expected_what;
        for (const auto seed : seeds) {
            sim::Machine machine(program, cortex_a15(), 0, seed,
                                 sim::SimOptions{backend, nullptr});
            machine.set_instruction_budget(budget);
            try {
                (void)machine.run("f", args);
                FAIL() << context << ": per-seed run did not throw";
            } catch (const std::exception& error) {
                expected_type = typeid(error);
                expected_what = error.what();
            }
        }
        sim::Machine machine(program, cortex_a15(), 0, 1,
                             sim::SimOptions{backend, nullptr});
        machine.set_instruction_budget(budget);
        try {
            (void)machine.run_seeds("f", args, seeds);
            ADD_FAILURE() << context << ": run_seeds did not throw";
        } catch (const std::exception& error) {
            EXPECT_EQ(std::type_index(typeid(error)), expected_type)
                << context;
            EXPECT_EQ(error.what(), expected_what) << context;
        }
    }
}

TEST(SimTraceLockstep, ErrorSurfacesMatchPerSeedRuns) {
    {
        ir::FunctionBuilder b("f", 0);
        const auto i = b.loop_begin(1000000);
        (void)b.add(i, i);
        b.loop_end();
        expect_lockstep_error(make_single(b.build()), {}, 1000, "budget");
    }
    {
        ir::FunctionBuilder b("f", 0);
        (void)b.load(b.imm(static_cast<ir::Word>(1) << 40));
        expect_lockstep_error(make_single(b.build()), {},
                              std::int64_t{1} << 40, "oob-load");
    }
    {
        ir::FunctionBuilder b("f", 1);
        (void)b.dynamic_loop_begin(b.param(0), 8);
        b.loop_end();
        expect_lockstep_error(make_single(b.build()), {9},
                              std::int64_t{1} << 40, "dynamic-loop-bound");
    }
}

/// A campaign on the trace tier (one lockstep pass) equals the same
/// campaign on the interpreter (one standalone run per seed).
void expect_profiles_tier_invariant(const usecases::UseCaseApp& app) {
    const auto spec = csl::parse(app.csl_source);
    for (const auto& task : spec.tasks) {
        const ir::Function* fn = app.program.find(task.entry);
        ASSERT_NE(fn, nullptr);
        for (const auto& core : app.platform.cores) {
            for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
                profiler::TaskProfile profiles[2];
                const sim::SimBackend backends[2] = {sim::SimBackend::kInterp,
                                                     sim::SimBackend::kTrace};
                for (int k = 0; k < 2; ++k) {
                    profiler::PowProfiler profiler(
                        app.program, core, opp, opp * 131 + 7,
                        sim::SimOptions{backends[k], nullptr});
                    profiles[k] = profiler.profile(
                        task.entry, profiler::zero_inputs(fn->param_count),
                        static_cast<int>(kCampaignSeeds));
                }
                const std::string context = app.name + "/" + task.entry +
                                            " core=" + core.name +
                                            " opp=" + std::to_string(opp);
                EXPECT_EQ(profiles[0].function, profiles[1].function);
                EXPECT_EQ(profiles[0].runs, profiles[1].runs);
                const auto same = [&](const profiler::Estimate& a,
                                      const profiler::Estimate& b,
                                      const char* what) {
                    EXPECT_EQ(a.mean, b.mean) << context << " " << what;
                    EXPECT_EQ(a.stddev, b.stddev) << context << " " << what;
                    EXPECT_EQ(a.p95, b.p95) << context << " " << what;
                    EXPECT_EQ(a.max, b.max) << context << " " << what;
                };
                same(profiles[0].time_s, profiles[1].time_s, "time");
                same(profiles[0].energy_j, profiles[1].energy_j, "energy");
                same(profiles[0].cycles, profiles[1].cycles, "cycles");
            }
        }
    }
}

TEST(SimTraceLockstep, ProfilesEqualAcrossTiersUav) {
    expect_profiles_tier_invariant(usecases::make_uav_app("apalis-tk1"));
}

TEST(SimTraceLockstep, ProfilesEqualAcrossTiersParking) {
    expect_profiles_tier_invariant(usecases::make_parking_app(false));
}

TEST(SimTraceLockstep, ComplexCoreCompileAveragesThreeFreshMachines) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    const auto& core = cortex_a15();
    for (const auto backend :
         {sim::SimBackend::kInterp, sim::SimBackend::kTrace}) {
        const compiler::MultiCriteriaCompiler mcc(
            app.program, core, sim::SimOptions{backend, nullptr});
        for (const auto& task : spec.tasks) {
            compiler::PassConfig config = mcc.traditional_config();
            config.opp_index = 1;
            const auto version = mcc.compile(task.entry, config);
            const ir::Function* fn = version.program->find(task.entry);
            ASSERT_NE(fn, nullptr);
            const std::vector<ir::Word> args(
                static_cast<std::size_t>(fn->param_count), 0);
            double time_s = 0.0;
            double energy_j = 0.0;
            double dynamic_j = 0.0;
            for (const std::uint64_t seed : {1000, 1001, 1002}) {
                sim::Machine machine(*version.program, core, config.opp_index,
                                     seed,
                                     sim::SimOptions{sim::SimBackend::kInterp,
                                                     nullptr});
                const auto run = machine.run(task.entry, args);
                time_s += run.time_s;
                energy_j += run.energy_j();
                dynamic_j += run.dynamic_energy_j;
            }
            EXPECT_EQ(version.time_s, time_s / 3) << task.entry;
            EXPECT_EQ(version.energy_j, energy_j / 3) << task.entry;
            EXPECT_EQ(version.energy_dynamic_j, dynamic_j / 3) << task.entry;
        }
    }
}

// -- engine-level identity ----------------------------------------------------

/// Whole-toolchain oracle: the same scenario through a multi-threaded
/// engine on each backend must produce byte-identical certificates (this is
/// also the ThreadSanitizer workout for the shared TraceCache).
TEST(SimTraceEngine, CertificatesByteIdenticalAcrossBackends) {
    const auto pill = usecases::make_camera_pill_app();
    const auto uav = usecases::make_uav_app("apalis-tk1");

    const auto run_with =
        [&](sim::SimBackend backend) -> std::vector<std::string> {
        core::ScenarioEngine::Options options;
        options.worker_threads = 4;
        options.sim =
            sim::SimOptions{backend, std::make_shared<sim::TraceCache>()};
        core::ScenarioEngine engine(options);
        std::vector<core::ScenarioRequest> requests;
        for (const auto* app : {&pill, &uav}) {
            core::ScenarioRequest request;
            request.program = &app->program;
            request.platform = &app->platform;
            request.csl_source = app->csl_source;
            request.label = app->name;
            requests.push_back(std::move(request));
        }
        std::vector<std::string> certs;
        for (auto& report : engine.run_all(requests))
            certs.push_back(report.certificate.to_text());
        return certs;
    };

    const auto interp = run_with(sim::SimBackend::kInterp);
    const auto trace = run_with(sim::SimBackend::kTrace);
    ASSERT_EQ(interp.size(), trace.size());
    for (std::size_t i = 0; i < interp.size(); ++i)
        EXPECT_EQ(interp[i], trace[i]) << "scenario " << i;
}

}  // namespace
