// Property-based sweeps over randomly generated programs and task graphs.
//
// These are the repository's strongest correctness guarantees:
//  * every compiler pass pipeline preserves program semantics (differential
//    execution against the untransformed program, memory included);
//  * static WCET/WCEC bounds stay sound across every pass pipeline;
//  * the certificate's time and energy proofs reproduce the analysers'
//    bounds at every operating point;
//  * security transforms preserve semantics and kill the timing channel on
//    arbitrary secret-dependent kernels;
//  * schedules never overlap on a core, never start before dependencies,
//    and the runtime replay agrees.
#include <gtest/gtest.h>

#include "compiler/multi_criteria.hpp"
#include "compiler/passes.hpp"
#include "contracts/certificate.hpp"
#include "coordination/runtime.hpp"
#include "coordination/scheduler.hpp"
#include "energy/analyser.hpp"
#include "ir/builder.hpp"
#include "ir/validate.hpp"
#include "security/leakage.hpp"
#include "security/transforms.hpp"
#include "sim/machine.hpp"
#include "wcet/analyser.hpp"

namespace {

using namespace teamplay;

const platform::Platform& nucleo() {
    static const platform::Platform p = platform::nucleo_f091();
    return p;
}

// -- random structured program generator --------------------------------------

/// Emits a random but well-formed function: nested loops/branches over a
/// small memory region, loop-carried state through both memory and
/// registers, calls into a shared helper.
ir::Program random_program(support::Rng& rng, bool with_calls) {
    ir::Program program;
    program.memory_words = 512;

    if (with_calls) {
        ir::FunctionBuilder helper("helper", 2);
        const auto t = helper.mul(helper.param(0), helper.param(1));
        helper.ret(helper.add_imm(t, 13));
        program.add(helper.build());
    }

    ir::FunctionBuilder b("f", 2);
    const auto acc = b.mov(b.imm(1));
    const int outer_blocks = static_cast<int>(rng.range(1, 3));
    for (int ob = 0; ob < outer_blocks; ++ob) {
        const auto trip = rng.range(2, 10);
        const auto i = b.loop_begin(trip * 2, trip * 2);
        // Mixed arithmetic with in-loop constants (LICM fodder).
        auto v = b.add(b.mul_imm(i, 7), b.param(0));
        v = b.bxor(v, b.shr_imm(v, 3));
        if (rng.chance(0.7)) {
            const auto c = b.cmp_lt(v, b.param(1));
            b.if_begin(c);
            {
                const auto addr = b.and_imm(v, 255);
                b.store(addr, b.add(v, i));
            }
            if (rng.chance(0.5)) {
                b.if_else();
                const auto addr = b.and_imm(b.add(v, i), 255);
                (void)b.load(addr);
            }
            b.if_end();
        }
        if (rng.chance(0.5)) {
            // Register-carried accumulator (tests unroll correctness).
            b.assign(acc, b.add(acc, b.band(v, b.imm(1023))));
        } else {
            // Memory-carried accumulator.
            const auto cell = b.imm(300 + ob);
            b.store(cell, b.add(b.load(cell), v));
        }
        if (with_calls && rng.chance(0.5)) {
            const auto r = b.call("helper", {i, v});
            b.assign(acc, b.bxor(acc, r));
        }
        if (rng.chance(0.4)) {
            const auto j = b.loop_begin(rng.range(2, 6));
            b.store(b.and_imm(b.add(i, j), 127), j);
            b.loop_end();
        }
        b.loop_end();
    }
    b.ret(acc);
    program.add(b.build());
    return program;
}

struct Observation {
    ir::Word ret = 0;
    std::vector<ir::Word> memory;
};

Observation observe(const ir::Program& program, const std::string& fn,
                    std::span<const ir::Word> args,
                    std::span<const ir::Word> memory_image) {
    sim::Machine machine(program, nucleo().cores[0], 0);
    machine.poke_span(0, memory_image);
    Observation result;
    result.ret = machine.run(fn, args).ret_value;
    result.memory = machine.peek_span(0, 400);
    return result;
}

class PassPipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PassPipelineProperty, FullPipelinePreservesSemantics) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
    const auto before = random_program(rng, /*with_calls=*/true);
    ASSERT_TRUE(ir::validate(before).empty());

    // Random pass configuration (always ends with DCE).
    const compiler::MultiCriteriaCompiler mcc(before, nucleo().cores[0]);
    compiler::Genome genome(compiler::kGenomeDims);
    for (auto& g : genome) g = rng.uniform();
    auto config = mcc.decode(genome, /*explore_security=*/false);
    config.opp_index = 0;
    const auto version = mcc.compile("f", config);
    ASSERT_TRUE(ir::validate(*version.program).empty())
        << "pipeline produced invalid IR for " << config.label();

    // Differential execution on several inputs and memory images.
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<ir::Word> args = {rng.range(-200, 200),
                                      rng.range(-200, 200)};
        std::vector<ir::Word> image(400);
        for (auto& w : image) w = rng.range(-50, 50);
        const auto o1 = observe(before, "f", args, image);
        const auto o2 = observe(*version.program, "f", args, image);
        ASSERT_EQ(o1.ret, o2.ret) << "config " << config.label();
        ASSERT_EQ(o1.memory, o2.memory) << "config " << config.label();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PassPipelineProperty,
                         ::testing::Range(0, 30));

class BoundSoundnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoundSoundnessProperty, WcetAndWcecBoundsSurviveTransformation) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const auto program = random_program(rng, /*with_calls=*/true);

    const compiler::MultiCriteriaCompiler mcc(program, nucleo().cores[0]);
    compiler::Genome genome(compiler::kGenomeDims);
    for (auto& g : genome) g = rng.uniform();
    auto config = mcc.decode(genome, false);
    config.opp_index = 1;
    const auto version = mcc.compile("f", config);
    ASSERT_TRUE(version.analysable);

    sim::Machine machine(*version.program, nucleo().cores[0], 1);
    for (int trial = 0; trial < 4; ++trial) {
        machine.clear_memory();
        std::vector<ir::Word> args = {rng.range(-100, 100),
                                      rng.range(-100, 100)};
        const auto run = machine.run("f", args);
        EXPECT_LE(run.time_s, version.wcet_s * (1.0 + 1e-9))
            << "WCET bound violated after " << config.label();
        EXPECT_LE(run.energy_j(), version.wcec_j * (1.0 + 1e-9))
            << "WCEC bound violated after " << config.label();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, BoundSoundnessProperty,
                         ::testing::Range(0, 25));

// -- security transform properties ------------------------------------------------

/// Random secret-dependent kernel with pure branch arms.
ir::Program random_secret_kernel(support::Rng& rng) {
    ir::FunctionBuilder b("k", 1);
    const auto key = b.secret(b.param(0));
    const auto acc = b.mov(b.imm(3));
    const auto bits = rng.range(4, 8);
    const auto i = b.loop_begin(bits);
    const auto bit = b.band(b.shr(key, i), b.imm(1));
    const auto mixed = b.bxor(acc, b.mul_imm(acc, 5));
    b.if_begin(bit);
    {
        auto v = b.add(mixed, b.imm(rng.range(1, 50)));
        if (rng.chance(0.5)) v = b.mul(v, b.imm(3));
        b.assign(acc, v);
    }
    b.if_else();
    {
        auto v = b.sub(mixed, b.imm(rng.range(1, 20)));
        b.assign(acc, v);
    }
    b.if_end();
    b.loop_end();
    b.ret(b.band(acc, b.imm(0xFFFF)));
    ir::Program program;
    program.add(b.build());
    return program;
}

class SecurityTransformProperty : public ::testing::TestWithParam<int> {};

TEST_P(SecurityTransformProperty, LadderisePreservesAndFlattens) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 7);
    const auto before = random_secret_kernel(rng);
    auto after = before;
    const auto stats = security::ladderise(after, *after.find("k"));
    ASSERT_GE(stats.rewritten, 1);
    EXPECT_EQ(stats.skipped, 0);

    // Semantics identical for every secret in the space.
    sim::Machine m0(before, nucleo().cores[0], 0);
    sim::Machine m1(after, nucleo().cores[0], 0);
    for (ir::Word secret = 0; secret < 64; ++secret) {
        ASSERT_EQ(m0.run("k", std::vector<ir::Word>{secret}).ret_value,
                  m1.run("k", std::vector<ir::Word>{secret}).ret_value)
            << "diverged at secret " << secret;
    }

    // Timing channel eliminated: identical cycle count for all secrets.
    const auto cycles_of = [&after](ir::Word secret) {
        sim::Machine machine(after, nucleo().cores[0], 0);
        return machine.run("k", std::vector<ir::Word>{secret}).cycles;
    };
    const double reference = cycles_of(0);
    for (ir::Word secret = 1; secret < 32; ++secret)
        ASSERT_DOUBLE_EQ(cycles_of(secret), reference);
}

TEST_P(SecurityTransformProperty, BalancePreservesAndFlattens) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 999331 + 17);
    const auto before = random_secret_kernel(rng);
    auto after = before;
    const auto stats =
        security::balance_secret_branches(after, *after.find("k"));
    ASSERT_GE(stats.rewritten, 1);

    sim::Machine m0(before, nucleo().cores[0], 0);
    sim::Machine m1(after, nucleo().cores[0], 0);
    double reference = -1.0;
    for (ir::Word secret = 0; secret < 64; ++secret) {
        const auto r0 = m0.run("k", std::vector<ir::Word>{secret});
        const auto r1 = m1.run("k", std::vector<ir::Word>{secret});
        ASSERT_EQ(r0.ret_value, r1.ret_value);
        if (reference < 0.0) reference = r1.cycles;
        ASSERT_DOUBLE_EQ(r1.cycles, reference)
            << "balanced timing varies at secret " << secret;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, SecurityTransformProperty,
                         ::testing::Range(0, 15));

// -- scheduler invariants ------------------------------------------------------------

coordination::TaskGraph random_graph(support::Rng& rng, int n) {
    coordination::TaskGraph graph;
    graph.app_name = "prop";
    for (int i = 0; i < n; ++i) {
        coordination::Task task;
        task.name = "t" + std::to_string(i);
        task.entry_fn = task.name;
        if (i > 0)
            for (int d = 0; d < 2; ++d)
                if (rng.chance(0.5))
                    task.deps.push_back("t" + std::to_string(rng.below(
                                            static_cast<std::uint64_t>(i))));
        std::sort(task.deps.begin(), task.deps.end());
        task.deps.erase(std::unique(task.deps.begin(), task.deps.end()),
                        task.deps.end());
        const int versions = static_cast<int>(rng.range(1, 3));
        for (int v = 0; v < versions; ++v) {
            coordination::VersionChoice choice;
            choice.time_s = rng.uniform(0.001, 0.02);
            choice.energy_j = rng.uniform(0.0001, 0.002);
            choice.opp_index = rng.below(3);
            task.versions[""].push_back(choice);
        }
        graph.tasks.push_back(std::move(task));
    }
    return graph;
}

class SchedulerInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerInvariants, NoOverlapDepsRespectedReplayAgrees) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 29);
    const auto graph = random_graph(rng, static_cast<int>(rng.range(4, 14)));
    const auto tx2 = platform::jetson_tx2();
    const coordination::Scheduler scheduler(tx2);

    for (const auto objective :
         {coordination::Scheduler::Objective::kMakespan,
          coordination::Scheduler::Objective::kEnergy}) {
        coordination::Scheduler::Options options;
        options.objective = objective;
        options.deadline_s = 10.0;
        options.anneal = objective ==
                         coordination::Scheduler::Objective::kEnergy;
        options.anneal_iterations = 50;
        const auto schedule = scheduler.schedule(graph, options);
        ASSERT_EQ(schedule.entries.size(), graph.tasks.size());

        // Invariant 1: no overlap on any core.
        for (const auto& a : schedule.entries)
            for (const auto& b : schedule.entries) {
                if (&a == &b || a.core != b.core) continue;
                const bool disjoint = a.finish_s <= b.start_s + 1e-12 ||
                                      b.finish_s <= a.start_s + 1e-12;
                ASSERT_TRUE(disjoint)
                    << a.task << " overlaps " << b.task << " on core "
                    << a.core;
            }

        // Invariant 2: starts never precede dependency finishes.
        for (const auto& entry : schedule.entries) {
            const auto* task = graph.find(entry.task);
            for (const auto& dep : task->deps) {
                const auto* dep_entry = schedule.entry_for(dep);
                ASSERT_NE(dep_entry, nullptr);
                ASSERT_GE(entry.start_s + 1e-12, dep_entry->finish_s)
                    << entry.task << " starts before " << dep;
            }
        }

        // Invariant 3: deterministic replay reproduces the makespan.
        const auto replay =
            coordination::execute_schedule(graph, schedule, {});
        ASSERT_NEAR(replay.makespan_s, schedule.makespan_s, 1e-9);

        // Invariant 4: energy accounting is monotone in the horizon.
        const double e1 = schedule.platform_energy_j(tx2, 1.0);
        const double e2 = schedule.platform_energy_j(tx2, 2.0);
        ASSERT_LT(e1, e2);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SchedulerInvariants,
                         ::testing::Range(0, 20));

// -- analyser agreement property -----------------------------------------------------

/// The certificate's proofs come from the fold the analysers run, so at every
/// operating point they reproduce the analysers' bounds, and a simulated run
/// (the average case) stays within them.
class AnalyserProofAgreement : public ::testing::TestWithParam<int> {};

TEST_P(AnalyserProofAgreement, AverageNeverExceedsWorstCase) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 5);
    const auto program = random_program(rng, true);
    const auto& core = nucleo().cores[0];
    const wcet::Analyser wcet_analyser(program);
    const energy::Analyser energy_analyser(program);
    for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
        SCOPED_TRACE("opp " + std::to_string(opp));
        const auto wcet = wcet_analyser.analyse("f", core, opp);
        const auto energy = energy_analyser.analyse("f", core, opp);
        ASSERT_TRUE(wcet.analysable);
        ASSERT_TRUE(energy.analysable);
        EXPECT_NEAR(energy.wcec_j,
                    energy.wce_dynamic_j + energy.wce_static_j,
                    1e-15 + energy.wcec_j * 1e-9);

        // The proofs apply the final unit scalings in another order than
        // the analysers, so cycles agree bit for bit and joules only to the
        // checker's tolerance.
        const auto cycles =
            contracts::build_time_proof_cycles(program, "f", core.model);
        EXPECT_EQ(cycles.value, wcet.cycles);
        const auto time =
            contracts::scale_to_seconds(cycles, core.opp(opp).freq_hz);
        EXPECT_TRUE(contracts::verify_proof(time));
        const auto joules =
            contracts::build_energy_proof_joules(program, "f", core, opp, time);
        EXPECT_TRUE(contracts::verify_proof(joules));
        EXPECT_NEAR(joules.value, energy.wcec_j, 1e-9 * energy.wcec_j);

        sim::Machine machine(program, core, opp);
        const auto run = machine.run(
            "f", std::vector<ir::Word>{rng.range(-100, 100),
                                       rng.range(-100, 100)});
        EXPECT_LE(run.time_s, time.value * (1.0 + 1e-9));
        EXPECT_LE(run.energy_j(), joules.value * (1.0 + 1e-9));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, AnalyserProofAgreement,
                         ::testing::Range(0, 15));

}  // namespace
