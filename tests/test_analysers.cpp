// Unit tests for the static WCET and energy analysers, including the
// soundness property: on predictable cores, the static bound must never be
// below what the simulator charges on any execution.
#include <gtest/gtest.h>

#include "energy/analyser.hpp"
#include "energy/component_model.hpp"
#include "energy/model_fit.hpp"
#include "ir/builder.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
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

TEST(Wcet, StraightLineBlockMatchesSimulatorExactly) {
    ir::FunctionBuilder b("f", 2);
    const auto s = b.add(b.param(0), b.param(1));
    const auto m = b.mul(s, s);
    b.ret(b.sub(m, s));
    const auto program = single(b.build());

    const wcet::Analyser analyser(program);
    const auto bound = analyser.analyse("f", nucleo().cores[0], 0);
    ASSERT_TRUE(bound.analysable);

    sim::Machine machine(program, nucleo().cores[0], 0);
    const auto run = machine.run("f", std::vector<ir::Word>{3, 4});
    // No branches: the bound is exact.
    EXPECT_DOUBLE_EQ(bound.cycles, run.cycles);
}

TEST(Wcet, BranchBoundTakesWorstArm) {
    ir::FunctionBuilder b("f", 1);
    const auto c = b.cmp_gt(b.param(0), b.imm(0));
    b.if_begin(c);
    (void)b.add(c, c);  // cheap arm: 1 ALU
    b.if_else();
    (void)b.div(c, c);  // expensive arm: 1 DIV (17 cycles on M0)
    b.if_end();
    const auto program = single(b.build());

    const wcet::Analyser analyser(program);
    const auto bound = analyser.analyse("f", nucleo().cores[0], 0);
    ASSERT_TRUE(bound.analysable);

    sim::Machine machine(program, nucleo().cores[0], 0);
    const auto cheap = machine.run("f", std::vector<ir::Word>{5});
    const auto pricey = machine.run("f", std::vector<ir::Word>{-5});
    EXPECT_GT(pricey.cycles, cheap.cycles);
    EXPECT_DOUBLE_EQ(bound.cycles, pricey.cycles);
    EXPECT_GE(bound.cycles, cheap.cycles);
}

TEST(Wcet, LoopBoundUsesStaticBoundNotTrip) {
    ir::FunctionBuilder b("f", 1);
    const auto i = b.dynamic_loop_begin(b.param(0), 64);
    (void)b.add(i, i);
    b.loop_end();
    const auto program = single(b.build());

    const wcet::Analyser analyser(program);
    const auto bound = analyser.analyse("f", nucleo().cores[0], 0);
    ASSERT_TRUE(bound.analysable);

    // Execute with fewer iterations than the bound: must stay below.
    sim::Machine machine(program, nucleo().cores[0], 0);
    const auto run = machine.run("f", std::vector<ir::Word>{10});
    EXPECT_LT(run.cycles, bound.cycles);

    const auto full = machine.run("f", std::vector<ir::Word>{64});
    EXPECT_DOUBLE_EQ(bound.cycles, full.cycles);
}

TEST(Wcet, CallsExpandCalleeBound) {
    ir::FunctionBuilder leaf("leaf", 0);
    (void)leaf.div(leaf.imm(100), leaf.imm(3));
    ir::FunctionBuilder main_fn("main", 0);
    (void)main_fn.call("leaf", {});
    (void)main_fn.call("leaf", {});
    ir::Program program;
    program.add(leaf.build());
    program.add(main_fn.build());

    const wcet::Analyser analyser(program);
    const auto leaf_bound = analyser.analyse("leaf", nucleo().cores[0], 0);
    const auto main_bound = analyser.analyse("main", nucleo().cores[0], 0);
    ASSERT_TRUE(main_bound.analysable);
    EXPECT_GT(main_bound.cycles, 2.0 * leaf_bound.cycles);
}

TEST(Wcet, ComplexCoreRefusesAnalysis) {
    ir::FunctionBuilder b("f", 0);
    (void)b.imm(1);
    const auto program = single(b.build());
    const auto tk1 = platform::apalis_tk1();
    const wcet::Analyser analyser(program);
    const auto bound = analyser.analyse("f", tk1.cores[0], 0);
    EXPECT_FALSE(bound.analysable);
    EXPECT_NE(bound.reason.find("profiler"), std::string::npos);
}

TEST(Wcet, UndefinedFunctionRefused) {
    ir::Program program;
    const wcet::Analyser analyser(program);
    EXPECT_FALSE(analyser.analyse("ghost", nucleo().cores[0], 0).analysable);
}

// Property sweep: for randomly generated structured programs, the static
// WCET bound is never below the simulator's charge, on any of 5 random
// inputs (soundness), on a predictable core.
class WcetSoundness : public ::testing::TestWithParam<int> {};

ir::Program random_program(support::Rng& rng) {
    ir::FunctionBuilder b("f", 2);
    const int outer = static_cast<int>(rng.range(1, 4));
    for (int o = 0; o < outer; ++o) {
        const auto i = b.loop_begin(rng.range(1, 12), rng.range(12, 20));
        auto acc = b.add(i, b.param(0));
        if (rng.chance(0.6)) {
            const auto c = b.cmp_lt(acc, b.param(1));
            b.if_begin(c);
            acc = b.mul(acc, acc);
            if (rng.chance(0.5)) {
                b.if_else();
                acc = b.div(acc, b.add_imm(i, 1));
            }
            b.if_end();
        }
        if (rng.chance(0.5)) {
            const auto addr = b.and_imm(acc, 63);
            b.store(addr, acc);
            (void)b.load(addr);
        }
        b.loop_end();
    }
    b.ret(b.imm(0));
    return single(b.build());
}

TEST_P(WcetSoundness, BoundDominatesAllObservedRuns) {
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
    const auto program = random_program(rng);
    const wcet::Analyser analyser(program);
    const auto bound = analyser.analyse("f", nucleo().cores[0], 1);
    ASSERT_TRUE(bound.analysable);

    sim::Machine machine(program, nucleo().cores[0], 1);
    for (int run_idx = 0; run_idx < 5; ++run_idx) {
        const std::vector<ir::Word> args = {rng.range(-100, 100),
                                            rng.range(-100, 100)};
        const auto run = machine.run("f", args);
        EXPECT_LE(run.cycles, bound.cycles)
            << "WCET bound violated on input (" << args[0] << ", " << args[1]
            << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, WcetSoundness,
                         ::testing::Range(0, 20));

// Energy analysis -----------------------------------------------------------

TEST(EnergyAnalysis, WcecDominatesSimulatedEnergy) {
    ir::FunctionBuilder b("f", 1);
    const auto i = b.loop_begin(32);
    const auto v = b.mul(i, b.param(0));
    b.store(b.and_imm(i, 31), v);
    b.loop_end();
    const auto program = single(b.build());

    const energy::Analyser analyser(program);
    const auto bound = analyser.analyse("f", nucleo().cores[0], 2);
    ASSERT_TRUE(bound.analysable);

    sim::Machine machine(program, nucleo().cores[0], 2);
    const auto run =
        machine.run("f", std::vector<ir::Word>{0x7FFFFFFFFFFFFFFF});
    EXPECT_LE(run.energy_j(), bound.wcec_j);
    EXPECT_GT(bound.wcec_j, 0.0);
}

TEST(EnergyAnalysis, ComplexCoreRefuses) {
    ir::FunctionBuilder b("f", 0);
    (void)b.imm(1);
    const auto program = single(b.build());
    const auto tx2 = platform::jetson_tx2();
    const energy::Analyser analyser(program);
    EXPECT_FALSE(analyser.analyse("f", tx2.cores[0], 0).analysable);
}

TEST(EnergyAnalysis, LowerVoltageOppCostsLessDynamicEnergy) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(64);
    (void)b.mul(i, i);
    b.loop_end();
    const auto program = single(b.build());
    const energy::Analyser analyser(program);
    const auto lo = analyser.analyse("f", nucleo().cores[0], 0);
    const auto hi = analyser.analyse("f", nucleo().cores[0], 2);
    ASSERT_TRUE(lo.analysable && hi.analysable);
    EXPECT_LT(lo.wce_dynamic_j, hi.wce_dynamic_j);
}

// Energy model fitting (the A3 methodology) ----------------------------------

TEST(EnergyModelFit, RecoversPerClassCostsWithinTolerance) {
    const auto suite = energy::make_calibration_suite(24, /*seed=*/7);
    const auto& core = nucleo().cores[0];
    const auto samples = energy::collect_samples(suite, core, 1, 4, 11);
    ASSERT_GT(samples.size(), 20u);

    const auto model = energy::fit_model(samples);
    // The fitted ALU cost should be near the ground-truth table value plus
    // the average data-dependent component (a few pJ): within 50%.
    const double truth =
        core.model.energy_of(isa::InstrClass::kAlu) * core.energy_scale(core.opp(1));
    const double fitted =
        model.energy_pj[static_cast<std::size_t>(isa::InstrClass::kAlu)];
    EXPECT_GT(fitted, 0.3 * truth);
    EXPECT_LT(fitted, 3.0 * truth);
}

TEST(EnergyModelFit, HeldOutMapeIsSmall) {
    const auto suite = energy::make_calibration_suite(30, /*seed=*/21);
    const auto& core = nucleo().cores[0];
    auto samples = energy::collect_samples(suite, core, 1, 6, 13);
    // Split train/test.
    std::vector<energy::CalibrationSample> train;
    std::vector<energy::CalibrationSample> test;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i % 3 == 0 ? test : train).push_back(samples[i]);

    const auto model = energy::fit_model(train);
    const double err = energy::model_mape(model, test);
    // The paper's models report errors in the few-percent range; our ground
    // truth has a data-dependent component the regression can't observe, so
    // allow up to 10%.
    EXPECT_LT(err, 10.0);
    EXPECT_GT(err, 0.0);  // perfection would mean the test is vacuous
}

TEST(ComponentModel, FitRecoversIdleAndPerComponentPower) {
    support::Rng rng(3);
    std::vector<energy::PowerSample> samples;
    const double idle = 1.9;
    const std::vector<double> truth = {4.5, 7.0, 2.0};
    for (int i = 0; i < 120; ++i) {
        energy::PowerSample sample;
        sample.utilisation = {rng.uniform(), rng.uniform(), rng.uniform()};
        sample.power_w = idle;
        for (std::size_t c = 0; c < truth.size(); ++c)
            sample.power_w += truth[c] * sample.utilisation[c];
        sample.power_w += rng.gaussian(0.0, 0.05);  // measurement noise
        samples.push_back(std::move(sample));
    }
    const auto model = energy::fit_component_model(samples);
    EXPECT_NEAR(model.idle_w, idle, 0.1);
    ASSERT_EQ(model.component_w.size(), 3u);
    EXPECT_NEAR(model.component_w[0], truth[0], 0.15);
    EXPECT_NEAR(model.component_w[1], truth[1], 0.15);
    EXPECT_NEAR(model.component_w[2], truth[2], 0.15);
    EXPECT_LT(energy::component_model_mape(model, samples), 2.0);
}

TEST(ComponentModel, EmptyInputYieldsDefault) {
    const auto model = energy::fit_component_model({});
    EXPECT_EQ(model.idle_w, 0.0);
    EXPECT_TRUE(model.component_w.empty());
}

TEST(MissionPower, FlightTimeArithmetic) {
    energy::MissionPower mission;
    mission.battery_wh = 68.0;
    mission.mechanical_w = 28.0;
    mission.electronics_w = 6.0;
    EXPECT_NEAR(mission.total_w(), 34.0, 1e-12);
    EXPECT_NEAR(mission.flight_time_s(), 68.0 * 3600.0 / 34.0, 1e-9);
}

}  // namespace
