// Outside-in per-layer attribution: re-issue a scenario's work through the
// public function of each layer, with a span around every call.
//
// The engine's own stage laps cannot serve as busy time (the analyse lap
// mixes compute with waiting on other scenarios' single-flight slots), so
// the traced run repeats each distinct unit of work sequentially on one
// thread.  Analysis units are deduplicated the way the evaluation cache
// deduplicates them (entry structural fingerprint x core x OPP x options),
// so a traced batch does the compute the untraced batch did, once.
//
// Span names (request roots are "request", probe roots are "probe"):
//   csl.parse ir.validate ir.fingerprint          parse stage
//   compiler.optimise                             static analyse unit
//   security.taint_entry profiler.profile         profiled analyse unit
//   coordination.schedule coordination.rta coordination.glue
//   contracts.check
//   compiler.compile security.taint wcet.analyse energy.analyse sim.run
//                                                 probes (replays)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "core/scenario_engine.hpp"
#include "trace.hpp"

namespace perfbench {

/// Outcome of replaying `MultiCriteriaCompiler::optimise` through
/// `compiler::fpa_optimise` with a counting evaluation function.
struct OptimiseReplay {
    std::vector<teamplay::compiler::TaskVersion> front;
    std::uint64_t compile_calls = 0;  ///< search + materialisation compiles
};

/// Compiles one configuration of the replayed function; a hook may wrap
/// `MultiCriteriaCompiler::compile` with spans but must return its result.
using CompileHook = std::function<teamplay::compiler::TaskVersion(
    const teamplay::compiler::PassConfig&)>;

/// Re-derive `optimise`'s result (FPA engine only) from `fpa_optimise`,
/// routing every compile — search evaluations, front materialisation and
/// the traditional baseline — through `compile`.  The result must equal
/// `optimise`'s front.
[[nodiscard]] OptimiseReplay replay_optimise(
    const teamplay::compiler::MultiCriteriaCompiler& compiler,
    const teamplay::compiler::MultiCriteriaCompiler::Options& options,
    const CompileHook& compile);

/// True when two fronts agree version for version (configuration and the
/// three objectives, bit-exact).
[[nodiscard]] bool same_front(
    const std::vector<teamplay::compiler::TaskVersion>& a,
    const std::vector<teamplay::compiler::TaskVersion>& b);

class LayerTracer {
public:
    /// Re-issue one scenario; call it inside a "request" root span (the
    /// caller may add its own spans, e.g. wire codecs, to that root).
    /// `engine_report` is what the engine returned
    /// for `request` (its task graph carries the analysed versions the
    /// scheduler consumes).  `analyse` re-runs the request's analysis
    /// units not yet re-issued (false for requests whose analyses the
    /// untraced run served from a warm cache).  Returns whether the
    /// re-issued certificate matches the engine's byte for byte.
    bool reissue(const teamplay::core::ScenarioRequest& request,
                 const teamplay::core::ToolchainReport& engine_report,
                 std::uint64_t request_id, bool analyse);

    /// Run the queued probes (replays and per-version analysers) of every
    /// static analysis unit re-issued so far.  Returns the number of
    /// replays whose front differed from `optimise`'s.
    std::uint64_t run_probes();

    [[nodiscard]] Tracer& tracer() { return tracer_; }
    [[nodiscard]] const Tracer& tracer() const { return tracer_; }

    [[nodiscard]] std::uint64_t compile_calls() const { return compile_calls_; }
    /// Simulator runs performed by the re-issued work (profiling campaigns
    /// plus complex-core candidate evaluations).
    [[nodiscard]] std::uint64_t sim_runs() const { return sim_runs_; }

private:
    struct StaticUnit {
        const teamplay::ir::Program* program;
        const teamplay::platform::Core* core;
        std::string entry;
        teamplay::compiler::MultiCriteriaCompiler::Options options;
        std::vector<teamplay::compiler::TaskVersion> front;  ///< optimise's
    };
    struct ProfiledUnit {
        const teamplay::ir::Program* program;
        const teamplay::platform::Core* core;
        std::string entry;
        std::size_t opp;
    };

    void analyse_static(const teamplay::core::ScenarioRequest& request,
                        const teamplay::csl::AppSpec& spec,
                        const std::map<std::string, std::uint64_t>& fps,
                        std::uint64_t request_id);
    void analyse_profiled(const teamplay::core::ScenarioRequest& request,
                          const teamplay::csl::AppSpec& spec,
                          const std::map<std::string, std::uint64_t>& fps,
                          std::uint64_t request_id);

    Tracer tracer_;
    std::set<std::uint64_t> validated_;
    std::set<std::string> analysed_;  ///< dedupe keys of analysis units
    std::vector<StaticUnit> static_probes_;
    std::vector<ProfiledUnit> profiled_probes_;
    std::uint64_t compile_calls_ = 0;
    std::uint64_t sim_runs_ = 0;
};

}  // namespace perfbench
