// The toolchain's product and knobs: what one scenario of the paper's two
// workflows yields, and the options that steer it.
//
// Predictable flow (Fig. 1): CSL -> multi-criteria compiler with static
// WCET/energy/security analysers -> coordination (multi-version energy-aware
// scheduling + glue code) -> contract system -> certificate.
//
// Complex flow (Fig. 2): CSL -> pass 1 (sequential glue + PowProfiler
// dynamic profiling across cores and DVFS points) -> pass 2 (energy-aware
// parallel schedule from the measured estimates) -> contracts admitted as
// measured evidence -> certificate flagged "contains measured evidence".
//
// Both run through core::ScenarioEngine (scenario_engine.hpp), which picks
// the flow from the platform class: build a ScenarioRequest and call
// `ScenarioEngine::run`, or `submit`/`run_all` for streams and batches.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "contracts/system.hpp"
#include "coordination/glue.hpp"
#include "coordination/runtime.hpp"
#include "coordination/scheduler.hpp"
#include "core/stage_telemetry.hpp"
#include "csl/csl.hpp"
#include "platform/platform.hpp"
#include "profiler/pow_profiler.hpp"

namespace teamplay::core {

/// Pareto front computed for one task on one core class.
struct TaskFront {
    std::string task;
    std::string core_class;
    std::vector<compiler::TaskVersion> versions;
};

struct ToolchainReport {
    csl::AppSpec spec;
    std::string platform_name;
    coordination::TaskGraph graph;  ///< with versions attached
    coordination::Schedule schedule;
    contracts::Certificate certificate;
    std::string glue_code;           ///< final (parallel) glue
    std::string sequential_glue;     ///< pass-1 glue (complex flow only)
    std::vector<TaskFront> fronts;
    /// Per-core rate-monotonic analysis when the app is periodic.
    std::map<std::size_t, coordination::RtaResult> rta;
    /// Wall time of each pipeline stage for this scenario, in execution
    /// order (engine lap timer; not part of the deterministic report body).
    std::vector<StageLap> stage_laps;

    /// Chosen compiled version for a scheduled task (predictable flow);
    /// nullptr when versions came from profiling.
    [[nodiscard]] const compiler::TaskVersion* chosen_version(
        const std::string& task) const;

    [[nodiscard]] std::string summary() const;
};

struct WorkflowOptions {
    compiler::MultiCriteriaCompiler::Options compiler;
    coordination::Scheduler::Options scheduler;
    int profile_runs = 25;  ///< complex flow: measurements per (task, opp)
    std::optional<coordination::GlueStyle> glue_style;  ///< default by board
};

}  // namespace teamplay::core
