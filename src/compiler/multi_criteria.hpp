// The multi-criteria optimising compiler (centre box of Fig. 1).
//
// Given a task entry function and a core, it explores the space of pass
// configurations (unrolling, inlining, classic scalar optimisations,
// security countermeasure level, DVFS operating point) and returns a Pareto
// front of compiled task *versions* over the three ETS objectives:
//
//   time     — static WCET bound on predictable cores,
//              measured mean over simulator runs on complex cores;
//   energy   — static WCEC bound / measured mean, same split;
//   security — static leakage proxy from the taint analysis.
//
// The front of versions is exactly what the coordination layer consumes
// (multi-version task scheduling, Roeder et al. [20]).
#pragma once

#include <compare>
#include <memory>
#include <string>
#include <vector>

#include "compiler/moo.hpp"
#include "compiler/passes.hpp"
#include "ir/program.hpp"
#include "platform/platform.hpp"
#include "sim/backend.hpp"

namespace teamplay::compiler {

/// Security countermeasure level applied by the pipeline.
enum class SecurityLevel : std::uint8_t { kNone, kBalance, kLadder };

[[nodiscard]] std::string_view security_level_name(SecurityLevel level);

/// One point in the configuration space.
struct PassConfig {
    bool fold = true;
    bool cse_pass = true;
    bool strength = true;
    bool dce_pass = true;
    bool inline_calls_pass = false;
    bool licm = false;      ///< loop-invariant constant hoisting
    int unroll_factor = 1;  ///< 1, 2, 4 or 8
    SecurityLevel security = SecurityLevel::kNone;
    std::size_t opp_index = 0;

    [[nodiscard]] std::string label() const;
    /// Orders on every field, so a config can key a memo.
    auto operator<=>(const PassConfig&) const = default;
};

/// A compiled task version with its analysed ETS properties.
struct TaskVersion {
    PassConfig config;
    bool analysable = false;  ///< static bounds valid (predictable core)
    double wcet_s = 0.0;      ///< static WCET bound (predictable only)
    double wcec_j = 0.0;      ///< static worst-case energy (predictable only)
    double time_s = 0.0;      ///< representative time (bound or measured mean)
    double energy_j = 0.0;    ///< representative dynamic+static energy
    /// Dynamic-only share of energy_j: what the version itself controls; the
    /// scheduler adds static/idle energy from the platform model.
    double energy_dynamic_j = 0.0;
    double leakage = 0.0;     ///< static leakage proxy (0 = constant-flow)
    int static_instrs = 0;    ///< code size proxy
    std::shared_ptr<const ir::Program> program;  ///< transformed program
};

/// The compiler front-end for one (program, core) pair.
class MultiCriteriaCompiler {
public:
    /// `sim` selects the simulator tier used to evaluate candidates on
    /// complex cores.  Candidate programs are throwaway, so their traces are
    /// compiled directly and never admitted to a shared TraceCache.
    MultiCriteriaCompiler(const ir::Program& source,
                          const platform::Core& core,
                          sim::SimOptions sim = {});

    /// Apply one configuration and analyse the result.
    [[nodiscard]] TaskVersion compile(const std::string& function,
                                      const PassConfig& config) const;

    enum class Engine : std::uint8_t { kFpa, kNsga2, kWeightedSum };

    struct Options {
        Engine engine = Engine::kFpa;
        int population = 12;
        int iterations = 14;
        std::uint64_t seed = 42;
        /// Include the security knob in the search space (off for tasks with
        /// no secrets: saves search budget).
        bool explore_security = true;
        /// Cap on returned versions (thinned uniformly, keeps extremes; a
        /// cap of 1 keeps the fastest).  Must be at least 1.
        std::size_t max_versions = 8;
    };

    /// Multi-objective search; returns the non-dominated versions sorted by
    /// ascending time.  Always includes the baseline config (all scalar
    /// passes, no unroll/inline, max frequency) for reference.  Search
    /// candidates are scored on the entry's reachable sub-program, once per
    /// distinct PassConfig; the returned versions embed the whole program.
    /// Throws std::invalid_argument when `options.max_versions` is 0.
    [[nodiscard]] std::vector<TaskVersion> optimise(
        const std::string& function, const Options& options) const;

    /// Map a genome in [0,1]^8 onto a configuration (exposed for tests).
    [[nodiscard]] PassConfig decode(const Genome& genome,
                                    bool explore_security) const;

    /// The "traditional toolchain" reference configuration: -O2-style scalar
    /// passes, no multi-objective exploration, maximum frequency.
    [[nodiscard]] PassConfig traditional_config() const;

private:
    const ir::Program* source_;
    const platform::Core* core_;
    sim::SimOptions sim_;
};

/// Number of genome dimensions used by `decode`.
inline constexpr int kGenomeDims = 8;

}  // namespace teamplay::compiler
