// The fixed pipeline of the ScenarioEngine: one table of five stage
// functions.
//
// Stage table (linear, in run order; DESIGN.md §3):
//
//   parse     validate the IR, parse/adopt the CSL spec, check that the app
//             declares tasks and that every task's entry exists and fits a
//             core class, build the task-graph skeleton
//   analyse   fill per-(task, core class[, OPP]) version candidates —
//             predictable platform: multi-criteria compiled Pareto fronts
//             (Fig. 1); complex platform: sequential glue + PowProfiler
//             campaigns (Fig. 2, pass 1)
//   schedule  energy-aware multi-version schedule, RM response-time
//             analysis, final glue code
//   contract  assemble per-POI contract inputs from the chosen versions —
//             predictable: analysable programs for proof construction;
//             complex: profiled estimates admitted as measured evidence
//   certify   check contracts and emit the certificate
//
// The two flows of the paper differ only inside analyse and contract, which
// branch on `platform.predictable()`.  Stage functions are stateless; all
// scenario state lives in the ScenarioContext, so concurrent scenarios
// share the table.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "contracts/system.hpp"
#include "core/scenario_engine.hpp"

namespace teamplay::core {

/// Mutable state threaded through the pipeline for one scenario.
struct ScenarioContext {
    const ScenarioRequest* request = nullptr;
    const ir::Program* program = nullptr;
    const platform::Platform* platform = nullptr;
    WorkflowOptions options;
    /// Canonical structural fingerprint per task entry function (filled by
    /// parse once the spec is known); the program component of every
    /// EvaluationKey, shared across programs that embed the same kernel.
    std::map<std::string, std::uint64_t> entry_fps;
    EvaluationCache* cache = nullptr;
    support::ThreadPool* pool = nullptr;
    /// Simulator tier (and shared trace cache) for machines built by
    /// analyse; copied from the engine's Options.
    sim::SimOptions sim;
    std::vector<contracts::ContractInput> contract_inputs;  ///< contract
    /// The pipeline's product; `report.spec` (filled by parse) is the
    /// single authoritative copy of the parsed CSL spec.
    ToolchainReport report;
};

/// The pipeline's stage names, in run order.  They are the lap names, the
/// telemetry keys and the units of the admission estimate.
inline constexpr std::array<std::string_view, 5> kStageNames = {
    "parse", "analyse", "schedule", "contract", "certify"};

/// Run the stage named `kStageNames[index]` on one scenario.
void run_stage(std::size_t index, ScenarioContext& context);

}  // namespace teamplay::core
