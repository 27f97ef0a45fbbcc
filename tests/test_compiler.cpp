// Unit tests for the multi-criteria compiler: each pass preserves semantics
// (differential execution on randomised inputs) and improves its intended
// metric; the multi-objective engines produce valid Pareto fronts; the
// search's candidate scores match whole-program compiles and its fronts
// stay pinned.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compiler/moo.hpp"
#include "compiler/multi_criteria.hpp"
#include "compiler/passes.hpp"
#include "fuzz/generator.hpp"
#include "ir/builder.hpp"
#include "ir/lowering.hpp"
#include "ir/printer.hpp"
#include "sim/machine.hpp"
#include "usecases/apps.hpp"
#include "wcet/analyser.hpp"

namespace {

using namespace teamplay;

ir::Program single(ir::Function fn) {
    ir::Program program;
    program.add(std::move(fn));
    return program;
}

const platform::Platform& nucleo() {
    static const platform::Platform p = platform::nucleo_f091();
    return p;
}

/// Differential execution over randomised inputs and shared memory images.
void expect_same_results(const ir::Program& before, const ir::Program& after,
                         const std::string& fn, int memory_probe = 64) {
    support::Rng rng(99);
    const int params = before.find(fn)->param_count;
    for (int trial = 0; trial < 8; ++trial) {
        sim::Machine m0(before, nucleo().cores[0], 0);
        sim::Machine m1(after, nucleo().cores[0], 0);
        std::vector<ir::Word> args;
        for (int p = 0; p < params; ++p) args.push_back(rng.range(-64, 64));
        // Seed identical memory.
        for (int a = 0; a < memory_probe; ++a) {
            const auto v = rng.range(-1000, 1000);
            m0.poke(static_cast<std::size_t>(a), v);
            m1.poke(static_cast<std::size_t>(a), v);
        }
        const auto r0 = m0.run(fn, args);
        const auto r1 = m1.run(fn, args);
        ASSERT_EQ(r0.ret_value, r1.ret_value) << "trial " << trial;
        for (int a = 0; a < memory_probe; ++a)
            ASSERT_EQ(m0.peek(static_cast<std::size_t>(a)),
                      m1.peek(static_cast<std::size_t>(a)))
                << "memory diverged at " << a;
    }
}

// -- constant folding ---------------------------------------------------------

TEST(ConstantFold, FoldsConstantChains) {
    ir::FunctionBuilder b("f", 0);
    const auto x = b.imm(6);
    const auto y = b.imm(7);
    const auto p = b.mul(x, y);
    b.ret(b.add_imm(p, 8));
    auto program = single(b.build());
    const int folded = compiler::constant_fold(*program.find("f"));
    EXPECT_GE(folded, 2);

    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", {}).ret_value, 50);
}

TEST(ConstantFold, PreservesSemanticsOnMixedCode) {
    ir::FunctionBuilder b("f", 2);
    const auto k = b.imm(10);
    const auto s = b.add(b.param(0), k);
    const auto t = b.mul(s, b.imm(3));
    const auto i = b.loop_begin(4);
    b.store(b.and_imm(i, 15), b.add(t, b.param(1)));
    b.loop_end();
    b.ret(t);
    const auto before = single(b.build());
    auto after = before;
    compiler::constant_fold(*after.find("f"));
    expect_same_results(before, after, "f");
}

TEST(ConstantFold, FoldsSelects) {
    ir::FunctionBuilder b("f", 0);
    const auto c = b.imm(1);
    const auto a = b.imm(10);
    const auto d = b.imm(20);
    b.ret(b.select(c, a, d));
    auto program = single(b.build());
    EXPECT_GE(compiler::constant_fold(*program.find("f")), 1);
    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", {}).ret_value, 10);
}

TEST(ConstantFold, OverflowingOpsFoldToWrappedConstants) {
    constexpr ir::Word kMin = std::numeric_limits<ir::Word>::min();
    ir::FunctionBuilder b("f", 0);
    const auto x = b.imm(kMin);
    const auto minus_one = b.imm(-1);
    const auto quotient = b.div(x, minus_one);
    const auto remainder = b.rem(x, minus_one);
    const auto negated = b.neg(x);
    const auto absolute = b.sabs(x);
    b.ret(quotient);
    auto program = single(b.build());
    EXPECT_EQ(compiler::constant_fold(*program.find("f")), 4);

    std::map<ir::Reg, ir::Instr> by_dst;
    ir::for_each_instr(*program.find("f")->body,
                       [&by_dst](const ir::Instr& instr) {
                           by_dst[instr.dst] = instr;
                       });
    const std::pair<ir::Reg, ir::Word> expected[] = {
        {quotient, kMin}, {remainder, 0}, {negated, kMin}, {absolute, kMin}};
    for (const auto& [reg, value] : expected) {
        EXPECT_EQ(by_dst[reg].op, ir::Opcode::kMovImm) << "r" << reg;
        EXPECT_EQ(by_dst[reg].imm, value) << "r" << reg;
    }
}

// -- CSE ----------------------------------------------------------------------

TEST(Cse, ReplacesDuplicatePureComputation) {
    ir::FunctionBuilder b("f", 2);
    const auto s1 = b.add(b.param(0), b.param(1));
    const auto s2 = b.add(b.param(0), b.param(1));  // duplicate
    b.ret(b.mul(s1, s2));
    auto program = single(b.build());
    const int replaced = compiler::cse(*program.find("f"));
    EXPECT_EQ(replaced, 1);
    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", std::vector<ir::Word>{3, 4}).ret_value, 49);
}

TEST(Cse, SkipsMultiplyDefinedRegisters) {
    // A register redefined in the block must not participate.
    ir::FunctionBuilder b("f", 1);
    auto fn_obj = [&]() {
        const auto v1 = b.add(b.param(0), b.param(0));
        // Manually force a redefinition pattern below after build.
        b.ret(v1);
        return b.build();
    }();
    // Insert a redefinition of param(0)'s consumer manually.
    auto& block = *fn_obj.body->children.at(0);
    ir::Instr redef = block.instrs[0];  // v1 = p0 + p0
    block.instrs.push_back(redef);      // v1 redefined identically
    ir::Instr use{};
    use.op = ir::Opcode::kAdd;
    use.dst = redef.dst;
    use.a = redef.dst;
    use.b = redef.dst;
    block.instrs.push_back(use);  // and consumed
    auto program = single(std::move(fn_obj));
    const int replaced = compiler::cse(*program.find("f"));
    EXPECT_EQ(replaced, 0);  // dst multiply-defined -> untouched
}

TEST(Cse, PreservesSemanticsOnRandomisedKernels) {
    ir::FunctionBuilder b("f", 2);
    const auto i = b.loop_begin(8);
    const auto a1 = b.mul(b.param(0), b.param(1));
    const auto a2 = b.mul(b.param(0), b.param(1));
    const auto sum = b.add(a1, a2);
    b.store(b.and_imm(i, 31), sum);
    b.loop_end();
    b.ret(b.imm(0));
    const auto before = single(b.build());
    auto after = before;
    compiler::cse(*after.find("f"));
    expect_same_results(before, after, "f");
}

// -- strength reduction ---------------------------------------------------------

TEST(StrengthReduce, MulByZeroOneAndTwo) {
    ir::FunctionBuilder b("f", 1);
    const auto zero = b.mul(b.param(0), b.imm(0));
    const auto one = b.mul(b.param(0), b.imm(1));
    const auto two = b.mul(b.param(0), b.imm(2));
    b.ret(b.add(zero, b.add(one, two)));
    auto program = single(b.build());
    const int rewritten =
        compiler::strength_reduce(*program.find("f"), nucleo().cores[0].model);
    EXPECT_GE(rewritten, 3);

    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", std::vector<ir::Word>{7}).ret_value, 21);
    EXPECT_EQ(m.run("f", std::vector<ir::Word>{-5}).ret_value, -15);
}

TEST(StrengthReduce, DivAndRemByOne) {
    ir::FunctionBuilder b("f", 1);
    const auto q = b.div(b.param(0), b.imm(1));
    const auto r = b.rem(b.param(0), b.imm(1));
    b.ret(b.add(q, r));
    auto program = single(b.build());
    EXPECT_GE(compiler::strength_reduce(*program.find("f"),
                                        nucleo().cores[0].model),
              2);
    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", std::vector<ir::Word>{-9}).ret_value, -9);
}

// -- DCE ------------------------------------------------------------------------

TEST(Dce, RemovesUnreadPureInstructions) {
    ir::FunctionBuilder b("f", 1);
    (void)b.mul(b.param(0), b.param(0));  // dead
    const auto live = b.add(b.param(0), b.param(0));
    (void)b.imm(123);  // dead
    b.ret(live);
    auto program = single(b.build());
    const int removed = compiler::dce(*program.find("f"));
    EXPECT_GE(removed, 2);
    sim::Machine m(program, nucleo().cores[0], 0);
    EXPECT_EQ(m.run("f", std::vector<ir::Word>{4}).ret_value, 8);
}

TEST(Dce, KeepsStoresAndControlInputs) {
    ir::FunctionBuilder b("f", 1);
    const auto addr = b.imm(5);
    b.store(addr, b.param(0));
    const auto c = b.cmp_gt(b.param(0), b.imm(0));
    b.if_begin(c);
    b.store(addr, b.imm(99), 1);
    b.if_end();
    b.ret(b.load(addr));
    const auto before = single(b.build());
    auto after = before;
    compiler::dce(*after.find("f"));
    expect_same_results(before, after, "f");
}

TEST(Dce, CascadesThroughDeadChains) {
    ir::FunctionBuilder b("f", 1);
    const auto d1 = b.add(b.param(0), b.param(0));
    const auto d2 = b.mul(d1, d1);  // chain only feeding dead code
    (void)b.add(d2, d2);
    b.ret(b.param(0));
    auto program = single(b.build());
    const int removed = compiler::dce(*program.find("f"));
    EXPECT_EQ(removed, 3);
}

// -- unrolling -------------------------------------------------------------------

ir::Program memory_sum_kernel(std::int64_t n) {
    ir::FunctionBuilder b("f", 0);
    const auto acc_addr = b.imm(100);
    const auto i = b.loop_begin(n);
    const auto acc = b.load(acc_addr);
    b.store(acc_addr, b.add(acc, b.mul(i, i)));
    b.loop_end();
    b.ret(b.load(acc_addr));
    return single(b.build());
}

TEST(Unroll, PreservesSemanticsAndIndexValues) {
    const auto before = memory_sum_kernel(16);
    for (const int factor : {2, 4, 8}) {
        auto after = before;
        const int count = compiler::unroll_loops(*after.find("f"), factor);
        EXPECT_EQ(count, 1) << "factor " << factor;
        expect_same_results(before, after, "f", 128);
    }
}

TEST(Unroll, ReducesWcetOnM0) {
    const auto before = memory_sum_kernel(32);
    auto after = before;
    compiler::unroll_loops(*after.find("f"), 4);

    const wcet::Analyser wb(before);
    const wcet::Analyser wa(after);
    const auto cb = wb.analyse("f", nucleo().cores[0], 0);
    const auto ca = wa.analyse("f", nucleo().cores[0], 0);
    ASSERT_TRUE(cb.analysable && ca.analysable);
    EXPECT_LT(ca.cycles, cb.cycles);
}

TEST(Unroll, SkipsNonDivisibleTripCounts) {
    const auto program = memory_sum_kernel(10);
    auto after = program;
    EXPECT_EQ(compiler::unroll_loops(*after.find("f"), 4), 0);
}

TEST(Unroll, SkipsDynamicLoops) {
    ir::FunctionBuilder b("f", 1);
    const auto i = b.dynamic_loop_begin(b.param(0), 64);
    (void)b.add(i, i);
    b.loop_end();
    auto program = single(b.build());
    EXPECT_EQ(compiler::unroll_loops(*program.find("f"), 2), 0);
}

TEST(Unroll, RegisterCarriedLoopsReplicateCorrectly) {
    // Accumulator carried in a register across iterations: replication is
    // sequential execution, so the unrolled loop must compute the same sum.
    ir::FunctionBuilder b("f", 1);
    const auto acc = b.mov(b.imm(0));
    const auto i = b.loop_begin(8);
    b.assign(acc, b.add(acc, b.add(i, b.param(0))));
    b.loop_end();
    b.ret(acc);
    const auto before = single(b.build());
    for (const int factor : {2, 4, 8}) {
        auto after = before;
        EXPECT_EQ(compiler::unroll_loops(*after.find("f"), factor), 1);
        expect_same_results(before, after, "f");
    }
}

TEST(Unroll, SkipsLoopsWritingTheirIndexRegister) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(8);
    (void)b.add(i, i);
    b.loop_end();
    b.ret(b.imm(0));
    auto fn = b.build();
    // Corrupt: make the body overwrite the index register.
    const auto& loop = *fn.body->children.at(0);
    const ir::Reg index = loop.index_reg;
    ir::for_each_instr(*fn.body->children.at(0)->body,
                       [index](ir::Instr& instr) {
                           if (instr.op == ir::Opcode::kAdd)
                               instr.dst = index;
                       });
    auto program = single(std::move(fn));
    EXPECT_EQ(compiler::unroll_loops(*program.find("f"), 2), 0);
}

// -- LICM -------------------------------------------------------------------------

TEST(Licm, HoistsSingleDefConstantsOutOfLoops) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(16);
    const auto mask = b.imm(255);          // invariant: hoistable
    const auto v = b.band(i, mask);
    b.store(b.and_imm(v, 63), v);          // and_imm materialises 63: also hoistable
    b.loop_end();
    b.ret(b.imm(0));
    auto program = single(b.build());
    const int hoisted = compiler::hoist_loop_constants(*program.find("f"));
    EXPECT_GE(hoisted, 2);

    // The loop body no longer contains MovImm instructions.
    const auto& seq = *program.find("f")->body;
    for (const auto& child : seq.children) {
        if (child->kind != ir::NodeKind::kLoop) continue;
        ir::for_each_instr(*child->body, [](const ir::Instr& instr) {
            EXPECT_NE(instr.op, ir::Opcode::kMovImm);
        });
    }
}

TEST(Licm, PreservesSemantics) {
    ir::FunctionBuilder b("f", 1);
    const auto i = b.loop_begin(12);
    const auto scaled = b.mul_imm(b.add(i, b.param(0)), 7);
    b.store(b.and_imm(scaled, 127), scaled);
    b.loop_end();
    b.ret(b.imm(0));
    const auto before = single(b.build());
    auto after = before;
    compiler::hoist_loop_constants(*after.find("f"));
    expect_same_results(before, after, "f", 128);
}

TEST(Licm, ReducesWcetOfConstantHeavyLoops) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(64);
    const auto v = b.and_imm(b.mul_imm(i, 37), 255);
    b.store(b.and_imm(v, 63), v);
    b.loop_end();
    b.ret(b.imm(0));
    const auto before = single(b.build());
    auto after = before;
    compiler::hoist_loop_constants(*after.find("f"));
    const wcet::Analyser wb(before);
    const wcet::Analyser wa(after);
    EXPECT_LT(wa.analyse("f", nucleo().cores[0], 0).cycles,
              wb.analyse("f", nucleo().cores[0], 0).cycles);
}

TEST(Licm, ComposesWithUnrollOnCryptoLoop) {
    // The XTEA-shaped pattern: register-carried state plus in-loop constants.
    ir::FunctionBuilder b("f", 1);
    const auto v0 = b.mov(b.param(0));
    const auto i = b.loop_begin(32);
    const auto mixed = b.bxor(b.and_imm(b.shl_imm(v0, 4), 0xFFFFFFFF),
                              b.shr_imm(v0, 5));
    b.assign(v0, b.and_imm(b.add(mixed, i), 0xFFFFFFFF));
    b.loop_end();
    b.ret(v0);
    const auto before = single(b.build());

    auto after = before;
    compiler::hoist_loop_constants(*after.find("f"));
    EXPECT_EQ(compiler::unroll_loops(*after.find("f"), 8), 1);
    expect_same_results(before, after, "f");

    const wcet::Analyser wb(before);
    const wcet::Analyser wa(after);
    const double cycles_before = wb.analyse("f", nucleo().cores[0], 0).cycles;
    const double cycles_after = wa.analyse("f", nucleo().cores[0], 0).cycles;
    // The combination should buy a double-digit percentage.
    EXPECT_LT(cycles_after, 0.9 * cycles_before);
}

TEST(Unroll, OnlyInnermostLoopsUnrolled) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(4);
    const auto j = b.loop_begin(8);
    b.store(b.and_imm(b.add(i, j), 63), j);
    b.loop_end();
    b.loop_end();
    b.ret(b.imm(0));
    auto program = single(b.build());
    const int count = compiler::unroll_loops(*program.find("f"), 2);
    EXPECT_EQ(count, 1);  // inner only
}

// -- inlining --------------------------------------------------------------------

TEST(Inline, ReplacesCallAndPreservesSemantics) {
    ir::FunctionBuilder leaf("leaf", 2);
    leaf.ret(leaf.mul(leaf.add(leaf.param(0), leaf.param(1)), leaf.param(0)));
    ir::FunctionBuilder main_fn("main", 2);
    const auto r = main_fn.call("leaf", {main_fn.param(0), main_fn.param(1)});
    main_fn.ret(main_fn.add_imm(r, 5));
    ir::Program before;
    before.add(leaf.build());
    before.add(main_fn.build());

    auto after = before;
    const int inlined = compiler::inline_calls(after, *after.find("main"));
    EXPECT_EQ(inlined, 1);
    expect_same_results(before, after, "main");

    // WCET improves by at least the call overhead.
    const wcet::Analyser wb(before);
    const wcet::Analyser wa(after);
    EXPECT_LT(wa.analyse("main", nucleo().cores[0], 0).cycles,
              wb.analyse("main", nucleo().cores[0], 0).cycles);
}

TEST(Inline, ThresholdRespected) {
    ir::FunctionBuilder big("big", 0);
    for (int i = 0; i < 50; ++i) (void)big.imm(i);
    big.ret(big.imm(0));
    ir::FunctionBuilder main_fn("main", 0);
    (void)main_fn.call("big", {});
    ir::Program program;
    program.add(big.build());
    program.add(main_fn.build());
    EXPECT_EQ(compiler::inline_calls(program, *program.find("main"), 10), 0);
    EXPECT_EQ(compiler::inline_calls(program, *program.find("main"), 100), 1);
}

TEST(Inline, TransitiveThroughNestedCalls) {
    ir::FunctionBuilder inner("inner", 1);
    inner.ret(inner.add_imm(inner.param(0), 1));
    ir::FunctionBuilder middle("middle", 1);
    middle.ret(middle.call("inner", {middle.param(0)}));
    ir::FunctionBuilder outer("outer", 1);
    outer.ret(outer.call("middle", {outer.param(0)}));
    ir::Program before;
    before.add(inner.build());
    before.add(middle.build());
    before.add(outer.build());

    auto after = before;
    const int inlined = compiler::inline_calls(after, *after.find("outer"));
    EXPECT_EQ(inlined, 2);
    expect_same_results(before, after, "outer");
}

// -- MOO engines ------------------------------------------------------------------

TEST(Moo, DominationBasics) {
    EXPECT_TRUE(compiler::dominates({1.0, 1.0}, {2.0, 2.0}));
    EXPECT_TRUE(compiler::dominates({1.0, 2.0}, {2.0, 2.0}));
    EXPECT_FALSE(compiler::dominates({2.0, 2.0}, {2.0, 2.0}));
    EXPECT_FALSE(compiler::dominates({1.0, 3.0}, {2.0, 2.0}));
}

TEST(Moo, ParetoFilterKeepsOnlyNonDominated) {
    std::vector<compiler::Solution> solutions = {
        {{}, {1.0, 5.0}}, {{}, {2.0, 4.0}}, {{}, {3.0, 3.0}},
        {{}, {2.5, 4.5}},  // dominated by {2,4}
        {{}, {5.0, 1.0}}};
    const auto front = compiler::pareto_filter(std::move(solutions));
    EXPECT_EQ(front.size(), 4u);
}

TEST(Moo, HypervolumeIncreasesWithBetterFront) {
    support::Rng rng(1);
    const std::vector<compiler::Objectives> good = {{1.0, 1.0}};
    const std::vector<compiler::Objectives> bad = {{5.0, 5.0}};
    const compiler::Objectives ref = {10.0, 10.0};
    const double hv_good = compiler::hypervolume(good, ref, 20000, rng);
    const double hv_bad = compiler::hypervolume(bad, ref, 20000, rng);
    EXPECT_GT(hv_good, hv_bad);
    EXPECT_NEAR(hv_good, 81.0, 2.0);
}

/// A synthetic 2-objective problem with a known convex front:
/// f1 = x0, f2 = 1 - sqrt(x0) (ZDT1-style with no distance term).
compiler::Objectives zdt_flat(const compiler::Genome& genome) {
    const double x = genome.empty() ? 0.0 : genome[0];
    return {x, 1.0 - std::sqrt(x)};
}

TEST(Moo, FpaApproachesKnownFront) {
    support::Rng rng(5);
    compiler::FpaParams params;
    params.population = 16;
    params.iterations = 30;
    const auto run = compiler::fpa_optimise(zdt_flat, 3, params, rng);
    EXPECT_GE(run.front.size(), 5u);
    EXPECT_GT(run.evaluations, 100);
    // Every front point should lie near the true front f2 = 1 - sqrt(f1).
    for (const auto& solution : run.front) {
        const double f1 = solution.objectives[0];
        const double f2 = solution.objectives[1];
        EXPECT_NEAR(f2, 1.0 - std::sqrt(f1), 0.05);
    }
}

TEST(Moo, Nsga2ApproachesKnownFront) {
    support::Rng rng(6);
    compiler::Nsga2Params params;
    params.population = 20;
    params.generations = 20;
    const auto run = compiler::nsga2_optimise(zdt_flat, 3, params, rng);
    EXPECT_GE(run.front.size(), 5u);
    for (const auto& solution : run.front) {
        const double f1 = solution.objectives[0];
        const double f2 = solution.objectives[1];
        EXPECT_NEAR(f2, 1.0 - std::sqrt(f1), 0.05);
    }
}

TEST(Moo, WeightedSumFindsFewerPoints) {
    support::Rng rng(7);
    compiler::WeightedSumParams params;
    const auto run = compiler::weighted_sum_optimise(zdt_flat, 3, params, rng);
    EXPECT_GE(run.front.size(), 1u);
    // The scalarising baseline characteristically covers less of the front
    // than the population-based engines with a similar budget.
    compiler::FpaParams fpa_params;
    support::Rng rng2(7);
    const auto fpa_run =
        compiler::fpa_optimise(zdt_flat, 3, fpa_params, rng2);
    EXPECT_LE(run.front.size(), fpa_run.front.size());
}

// -- MultiCriteriaCompiler ----------------------------------------------------------

ir::Program pipeline_kernel() {
    ir::FunctionBuilder helper("scale", 2);
    helper.ret(helper.mul(helper.param(0), helper.param(1)));
    ir::FunctionBuilder b("task", 1);
    const auto i = b.loop_begin(16);
    const auto v = b.call("scale", {i, b.param(0)});
    b.store(b.and_imm(i, 31), v);
    b.loop_end();
    b.ret(b.imm(0));
    ir::Program program;
    program.add(helper.build());
    program.add(b.build());
    return program;
}

TEST(MultiCriteria, CompileProducesAnalysedVersionOnPredictableCore) {
    const auto program = pipeline_kernel();
    const compiler::MultiCriteriaCompiler mcc(program, nucleo().cores[0]);
    const auto version = mcc.compile("task", mcc.traditional_config());
    EXPECT_TRUE(version.analysable);
    EXPECT_GT(version.wcet_s, 0.0);
    EXPECT_GT(version.wcec_j, 0.0);
    EXPECT_GT(version.static_instrs, 0);
    ASSERT_NE(version.program, nullptr);
}

TEST(MultiCriteria, ComplexCoreVersionIsMeasuredNotAnalysed) {
    const auto program = pipeline_kernel();
    const auto tk1 = platform::apalis_tk1();
    const compiler::MultiCriteriaCompiler mcc(program, tk1.cores[0]);
    compiler::PassConfig config;
    const auto version = mcc.compile("task", config);
    EXPECT_FALSE(version.analysable);
    EXPECT_GT(version.time_s, 0.0);
    EXPECT_GT(version.energy_j, 0.0);
}

TEST(MultiCriteria, DecodeCoversKnobSpace) {
    const auto program = pipeline_kernel();
    const compiler::MultiCriteriaCompiler mcc(program, nucleo().cores[0]);
    const auto lo = mcc.decode(compiler::Genome(compiler::kGenomeDims, 0.0),
                               true);
    const auto hi = mcc.decode(compiler::Genome(compiler::kGenomeDims, 0.999),
                               true);
    EXPECT_EQ(lo.unroll_factor, 1);
    EXPECT_EQ(hi.unroll_factor, 8);
    EXPECT_FALSE(lo.inline_calls_pass);
    EXPECT_TRUE(hi.inline_calls_pass);
    EXPECT_EQ(lo.security, compiler::SecurityLevel::kNone);
    EXPECT_EQ(hi.security, compiler::SecurityLevel::kLadder);
    EXPECT_EQ(lo.opp_index, 0u);
    EXPECT_EQ(hi.opp_index, nucleo().cores[0].max_opp());
}

TEST(MultiCriteria, OptimiseBeatsTraditionalOnSomeObjective) {
    const auto program = pipeline_kernel();
    const compiler::MultiCriteriaCompiler mcc(program, nucleo().cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.population = 8;
    options.iterations = 8;
    options.explore_security = false;
    const auto front = mcc.optimise("task", options);
    ASSERT_FALSE(front.empty());

    const auto traditional = mcc.compile("task", mcc.traditional_config());
    bool some_better_time = false;
    bool some_better_energy = false;
    for (const auto& version : front) {
        some_better_time |= version.time_s < traditional.time_s;
        some_better_energy |= version.energy_j < traditional.energy_j;
    }
    EXPECT_TRUE(some_better_time || some_better_energy);

    // Front sorted by time and mutually non-dominated.
    for (std::size_t i = 1; i < front.size(); ++i)
        EXPECT_LE(front[i - 1].time_s, front[i].time_s);
}

TEST(MultiCriteria, AllVersionsPreserveTaskSemantics) {
    const auto program = pipeline_kernel();
    const compiler::MultiCriteriaCompiler mcc(program, nucleo().cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.population = 6;
    options.iterations = 5;
    const auto front = mcc.optimise("task", options);
    for (const auto& version : front)
        expect_same_results(program, *version.program, "task");
}

// The search scores candidates on the entry's reachable sub-program.  This
// holds only while no pass or analyser reads outside the entry's call graph.
TEST(MultiCriteria, ObjectivesDependOnlyOnTheEntryCallGraph) {
    fuzz::GeneratorConfig shape;
    shape.min_functions = 3;
    shape.max_functions = 6;  // room for callees and decoys
    const fuzz::ProgramGenerator generator(shape);
    const auto tk1 = platform::apalis_tk1();
    const platform::Core* cores[] = {&nucleo().cores[0], &tk1.cores[0]};
    int entries_with_decoys = 0;
    int entries_with_callees = 0;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const auto scenario = generator.scenario(seed);
        const std::set<std::string> entries(scenario.entries.begin(),
                                            scenario.entries.end());
        for (const auto& entry : entries) {
            const auto sub = ir::reachable_subprogram(scenario.program, entry);
            if (sub.functions.size() < scenario.program.functions.size())
                ++entries_with_decoys;
            if (sub.functions.size() > 1) ++entries_with_callees;
            for (const platform::Core* core : cores) {
                const compiler::MultiCriteriaCompiler whole(scenario.program,
                                                            *core);
                const compiler::MultiCriteriaCompiler reachable(sub, *core);
                support::Rng rng(seed);
                for (int g = 0; g < 16; ++g) {
                    compiler::Genome genome(compiler::kGenomeDims);
                    for (auto& gene : genome) gene = rng.uniform();
                    const auto config = whole.decode(genome, true);
                    const auto a = whole.compile(entry, config);
                    const auto b = reachable.compile(entry, config);
                    const auto where = "seed " + std::to_string(seed) + " " +
                                       entry + " on " + core->name + " " +
                                       config.label();
                    EXPECT_EQ(a.time_s, b.time_s) << where;
                    EXPECT_EQ(a.energy_j, b.energy_j) << where;
                    EXPECT_EQ(a.leakage, b.leakage) << where;
                }
            }
        }
    }
    EXPECT_GT(entries_with_decoys, 0);
    EXPECT_GT(entries_with_callees, 0);
}

struct PinnedVersion {
    std::string label;
    double time_s;
    double energy_j;
    double leakage;
};

void expect_front(const std::vector<compiler::TaskVersion>& front,
                  const std::vector<PinnedVersion>& pinned) {
    ASSERT_EQ(front.size(), pinned.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_EQ(front[i].config.label(), pinned[i].label) << i;
        EXPECT_EQ(front[i].time_s, pinned[i].time_s) << i;
        EXPECT_EQ(front[i].energy_j, pinned[i].energy_j) << i;
        EXPECT_EQ(front[i].leakage, pinned[i].leakage) << i;
    }
}

const usecases::UseCaseApp& pill_app() {
    static const usecases::UseCaseApp app = usecases::make_camera_pill_app();
    return app;
}

// Fronts of pill_encrypt (which calls pill_xtea_block and never
// pill_xtea_unblock) recorded from the whole-program search, so a search
// that drifts under any engine fails here.
TEST(MultiCriteria, PinnedPillEncryptFronts) {
    using Engine = compiler::MultiCriteriaCompiler::Engine;
    const compiler::MultiCriteriaCompiler mcc(pill_app().program,
                                              pill_app().platform.cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.engine = Engine::kFpa;
    expect_front(mcc.optimise("pill_encrypt", options),
                 {{"u2+inl+licm+dce/sec=balance/opp2", 0.020912687499999999,
                   0.00021375658245000005, 0},
                  {"u8+inl+licm+dce/sec=balance/opp0", 0.12086812500000001,
                   0.00017659333555555557, 0}});
    options.engine = Engine::kNsga2;
    expect_front(mcc.optimise("pill_encrypt", options),
                 {{"u1+inl+fold+sr+licm+dce/sec=none/opp2", 0.0219366875,
                   0.00022083856645000005, 0}});
    options.engine = Engine::kWeightedSum;
    expect_front(
        mcc.optimise("pill_encrypt", options),
        {{"u8+inl+fold+cse+sr+licm+dce/sec=ladder/opp2", 0.026288437500000001,
          0.00027255143945000004, 0},
         {"u8+inl+fold+sr+licm+dce/sec=balance/opp1", 0.040289375000000002,
          0.00021808826178113585, 0}});
}

TEST(MultiCriteria, VersionCapOfOneKeepsTheFastest) {
    const compiler::MultiCriteriaCompiler mcc(pill_app().program,
                                              pill_app().platform.cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    const auto full = mcc.optimise("pill_encrypt", options);
    ASSERT_GT(full.size(), 1U);  // the cap must actually thin
    options.max_versions = 1;
    const auto capped = mcc.optimise("pill_encrypt", options);
    ASSERT_EQ(capped.size(), 1U);
    EXPECT_EQ(capped[0].config.label(), full[0].config.label());
    EXPECT_EQ(capped[0].time_s, full[0].time_s);
}

TEST(MultiCriteria, VersionCapOfZeroIsRejected) {
    const compiler::MultiCriteriaCompiler mcc(pill_app().program,
                                              pill_app().platform.cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.max_versions = 0;
    EXPECT_THROW((void)mcc.optimise("pill_encrypt", options),
                 std::invalid_argument);
}

// optimise is const and keeps its memo per call, so one compiler serves
// concurrent searches (run under TSan in CI).
TEST(MultiCriteria, ConcurrentOptimiseOnOneCompiler) {
    const compiler::MultiCriteriaCompiler mcc(pill_app().program,
                                              pill_app().platform.cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.population = 6;
    options.iterations = 4;
    std::vector<PinnedVersion> expected;
    for (const auto& version : mcc.optimise("pill_encrypt", options))
        expected.push_back({version.config.label(), version.time_s,
                            version.energy_j, version.leakage});
    std::vector<std::vector<compiler::TaskVersion>> fronts(4);
    std::vector<std::thread> threads;
    for (auto& front : fronts)
        threads.emplace_back([&mcc, &options, &front] {
            front = mcc.optimise("pill_encrypt", options);
        });
    for (auto& thread : threads) thread.join();
    for (const auto& front : fronts) expect_front(front, expected);
}

}  // namespace
