// Tests for the ETS refactoring advisor (the paper's future-work extension).
#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/scenario_engine.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

core::ToolchainReport pill_report() {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.compiler.population = 8;
    options.compiler.iterations = 8;
    core::ScenarioEngine engine;
    return engine.run({.program = &app.program,
                       .platform = &app.platform,
                       .spec = spec,
                       .options = options});
}

TEST(Advisor, GreenReportProducesOnlyOptimisationHints) {
    const auto report = pill_report();
    ASSERT_TRUE(report.certificate.all_hold());
    const auto advice = core::advise(report);
    for (const auto& item : advice)
        EXPECT_NE(item.kind, core::AdviceKind::kBrokenBudget);
}

TEST(Advisor, SortedByImpactDescending) {
    const auto advice = core::advise(pill_report());
    for (std::size_t i = 1; i < advice.size(); ++i)
        EXPECT_GE(advice[i - 1].impact, advice[i].impact);
}

TEST(Advisor, DetectsBrokenBudget) {
    auto report = pill_report();
    // Force a violation.
    ASSERT_FALSE(report.certificate.results.empty());
    auto& result = report.certificate.results.front();
    result.holds = false;
    result.analysed = result.budget * 2.0;
    const auto advice = core::advise(report);
    bool broken = false;
    for (const auto& item : advice)
        broken |= item.kind == core::AdviceKind::kBrokenBudget;
    EXPECT_TRUE(broken);
    // Violations sort first (impact 1.0).
    ASSERT_FALSE(advice.empty());
    EXPECT_EQ(advice.front().kind, core::AdviceKind::kBrokenBudget);
}

TEST(Advisor, DetectsTightBudget) {
    auto report = pill_report();
    auto& result = report.certificate.results.front();
    result.budget = result.analysed * 1.05;  // 5% headroom
    const auto advice = core::advise(report);
    bool tight = false;
    for (const auto& item : advice)
        tight |= item.kind == core::AdviceKind::kTightBudget &&
                 item.task == result.poi;
    EXPECT_TRUE(tight);
}

TEST(Advisor, FlagsMeasuredEvidenceOnComplexFlow) {
    const auto app = usecases::make_uav_app();
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.profile_runs = 6;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    const auto advice = core::advise(report);
    bool measured = false;
    for (const auto& item : advice)
        measured |= item.kind == core::AdviceKind::kMeasuredEvidence;
    EXPECT_TRUE(measured);
}

TEST(Advisor, RenderIncludesEveryFinding) {
    const auto advice = core::advise(pill_report());
    const auto text = core::render_advice(advice);
    if (advice.empty()) {
        EXPECT_NE(text.find("no findings"), std::string::npos);
    } else {
        EXPECT_NE(text.find("finding(s)"), std::string::npos);
        for (const auto& item : advice)
            EXPECT_NE(text.find(item.message), std::string::npos);
    }
}

TEST(Advisor, EmptyAdviceRendering) {
    EXPECT_NE(core::render_advice({}).find("no findings"),
              std::string::npos);
}

}  // namespace
