// Tests for the dynamic profiler (PowProfiler) and a parameterised sweep of
// malformed CSL inputs (the front-end must reject each with a line-accurate
// error, never crash or mis-parse).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "ir/builder.hpp"
#include "profiler/pow_profiler.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

ir::Program noisy_program() {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(100);
    const auto addr = b.and_imm(i, 63);
    b.store(addr, b.mul(i, i));
    (void)b.load(addr);
    b.loop_end();
    b.ret(b.imm(0));
    ir::Program program;
    program.add(b.build());
    return program;
}

TEST(PowProfiler, EstimateOrderingInvariants) {
    const auto program = noisy_program();
    const auto tk1 = platform::apalis_tk1();
    profiler::PowProfiler prof(program, tk1.cores[0], 1, 5);
    const auto profile = prof.profile("f", profiler::zero_inputs(0), 40);

    EXPECT_EQ(profile.runs, 40);
    EXPECT_GT(profile.time_s.mean, 0.0);
    EXPECT_LE(profile.time_s.mean, profile.time_s.p95 * (1.0 + 1e-9));
    EXPECT_LE(profile.time_s.p95, profile.time_s.max * (1.0 + 1e-9));
    EXPECT_GT(profile.time_s.high_water_mark(), profile.time_s.max);
    EXPECT_GT(profile.energy_j.mean, 0.0);
    EXPECT_GT(profile.cycles.mean, 0.0);
}

TEST(PowProfiler, ComplexCoreShowsSpreadPredictableDoesNot) {
    const auto program = noisy_program();
    const auto tk1 = platform::apalis_tk1();
    profiler::PowProfiler complex_prof(program, tk1.cores[0], 1, 5);
    const auto complex_profile =
        complex_prof.profile("f", profiler::zero_inputs(0), 30);
    EXPECT_GT(complex_profile.time_s.stddev, 0.0);

    const auto nucleo = platform::nucleo_f091();
    profiler::PowProfiler predictable_prof(program, nucleo.cores[0], 1, 5);
    const auto predictable_profile =
        predictable_prof.profile("f", profiler::zero_inputs(0), 30);
    // Exactly repeatable up to floating-point accumulation noise.
    EXPECT_NEAR(predictable_profile.time_s.stddev, 0.0, 1e-15);
    EXPECT_NEAR(predictable_profile.time_s.mean,
                predictable_profile.time_s.max,
                1e-15);
}

TEST(PowProfiler, DeterministicForSameSeed) {
    const auto program = noisy_program();
    const auto tk1 = platform::apalis_tk1();
    profiler::PowProfiler a(program, tk1.cores[0], 1, 99);
    profiler::PowProfiler b(program, tk1.cores[0], 1, 99);
    const auto pa = a.profile("f", profiler::zero_inputs(0), 20);
    const auto pb = b.profile("f", profiler::zero_inputs(0), 20);
    EXPECT_DOUBLE_EQ(pa.time_s.mean, pb.time_s.mean);
    EXPECT_DOUBLE_EQ(pa.energy_j.max, pb.energy_j.max);
}

TEST(PowProfiler, HigherFrequencyProfilesFaster) {
    const auto program = noisy_program();
    const auto tk1 = platform::apalis_tk1();
    profiler::PowProfiler slow(program, tk1.cores[0], 0, 7);
    profiler::PowProfiler fast(program, tk1.cores[0], 3, 7);
    const auto ps = slow.profile("f", profiler::zero_inputs(0), 20);
    const auto pf = fast.profile("f", profiler::zero_inputs(0), 20);
    EXPECT_GT(ps.time_s.mean, pf.time_s.mean);
}

/// The message of the std::invalid_argument `action` throws ("" if none).
template <typename Action>
std::string invalid_argument_text(Action&& action) {
    try {
        action();
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    return "";
}

// A remote peer controls profile_runs; a non-positive count must fail
// before any run, not as a scheduler or vector::reserve error later.
TEST(PowProfiler, NonPositiveRunCountIsRejectedUpFront) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    profiler::PowProfiler prof(app.program, app.platform.cores[0], 1, 5);
    for (const int runs : {0, -1})
        EXPECT_EQ(invalid_argument_text([&] {
                      (void)prof.profile("uav_capture",
                                         profiler::zero_inputs(0), runs);
                  }),
                  "PowProfiler::profile: runs must be >= 1, got " +
                      std::to_string(runs));

    core::ScenarioEngine engine;
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options.profile_runs = 0;
    EXPECT_EQ(invalid_argument_text([&] { (void)engine.run(request); }),
              "PowProfiler::profile: runs must be >= 1, got 0");
}

// -- CSL malformed-input sweep -------------------------------------------------

struct BadCsl {
    const char* description;
    const char* source;
};

const BadCsl kBadInputs[] = {
    {"empty input", ""},
    {"missing braces", "app x on p"},
    {"unclosed app block", "app x on p {"},
    {"task without entry", "app x on p { task t { } }"},
    {"task missing semicolon", "app x on p { task t { entry f } }"},
    {"bad time unit", "app x on p { task t { entry f; period 5lightyears; } }"},
    {"bad energy unit",
     "app x on p { task t { entry f; budget energy 5V; } }"},
    {"bad leakage number",
     "app x on p { task t { entry f; budget leakage much; } }"},
    {"unknown budget kind",
     "app x on p { task t { entry f; budget karma 3; } }"},
    {"unknown attribute", "app x on p { task t { entry f; colour red; } }"},
    {"unknown security level",
     "app x on p { task t { entry f; security quantum; } }"},
    {"flow without arrow", "app x on p { task t { entry f; } flow t; }"},
    {"flow to unknown task",
     "app x on p { task t { entry f; } flow t -> u; }"},
    {"after unknown task",
     "app x on p { task t { entry f; after ghost; } }"},
    {"duplicate task",
     "app x on p { task t { entry f; } task t { entry g; } }"},
    {"stray token after block", "app x on p { } trailing"},
    {"unexpected character", "app x on p { task t { entry f; } ~ }"},
    {"deadline garbage", "app x on p deadline never { }"},
};

class CslRejects : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CslRejects, MalformedInputThrowsCslError) {
    const auto& bad = kBadInputs[GetParam()];
    SCOPED_TRACE(bad.description);
    EXPECT_THROW((void)csl::parse(bad.source), csl::CslError)
        << "accepted: " << bad.description;
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, CslRejects,
    ::testing::Range<std::size_t>(0, sizeof kBadInputs / sizeof kBadInputs[0]));

TEST(CslAccepts, CommentsWhitespaceAndMinimalApp) {
    const auto spec = csl::parse(
        "# leading comment\n\napp     tiny   on nucleo-f091\n{\n"
        "  task only { entry f; }  # trailing comment\n}\n");
    EXPECT_EQ(spec.name, "tiny");
    ASSERT_EQ(spec.tasks.size(), 1u);
    EXPECT_EQ(spec.tasks[0].entry, "f");
    EXPECT_DOUBLE_EQ(spec.deadline_s, 0.0);
    EXPECT_LT(spec.tasks[0].time_budget_s, 0.0);  // no contract
}

TEST(CslAccepts, LongFlowChainsAddEachEdgeOnce) {
    const auto spec = csl::parse(R"(
app chain on p {
  task a { entry fa; }
  task b { entry fb; }
  task c { entry fc; }
  flow a -> b -> c;
  flow a -> b;  # duplicate edge must not double
}
)");
    ASSERT_EQ(spec.tasks[1].deps.size(), 1u);
    EXPECT_EQ(spec.tasks[1].deps[0], "a");
    ASSERT_EQ(spec.tasks[2].deps.size(), 1u);
    EXPECT_EQ(spec.tasks[2].deps[0], "b");
}

TEST(CslAccepts, MultipleAftersAndCommaList) {
    const auto spec = csl::parse(R"(
app m on p {
  task a { entry fa; }
  task b { entry fb; }
  task c { entry fc; after a, b; }
}
)");
    EXPECT_EQ(spec.tasks[2].deps.size(), 2u);
}

TEST(CslSkeleton, CarriesTimingFieldsIntoGraph) {
    const auto spec = csl::parse(R"(
app s on p {
  task a { entry fa; period 100ms; deadline 80ms; }
  task b { entry fb; after a; }
}
)");
    const auto graph = spec.skeleton();
    ASSERT_EQ(graph.tasks.size(), 2u);
    EXPECT_DOUBLE_EQ(graph.tasks[0].period_s, 0.1);
    EXPECT_DOUBLE_EQ(graph.tasks[0].deadline_s, 0.08);
    EXPECT_EQ(graph.tasks[1].deps, std::vector<std::string>{"a"});
    EXPECT_EQ(graph.app_name, "s");
}

}  // namespace
