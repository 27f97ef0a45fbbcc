// Byte-level differential oracle across every execution tier
// (DESIGN.md §13): the engine's determinism contract, weaponised.
//
// Every tier of the stack promises the same observable bytes for the same
// scenario: worker counts, the simulator tier, a wire v4 round-trip and a
// loopback fabric hop are all *representation* choices that must never
// reach the report.  The oracle runs one generated scenario through each
// tier and compares the canonical report encoding
// (wire::encode with the non-deterministic stage laps stripped) against
// the reference tier byte for byte — ΔELTA's differential-comparison idea
// (PAPERS.md) applied to this engine's own tiers.  Any first differing
// byte is a bug: in the tier, in a cache key that erased too much, or in
// a fingerprint that erased too little.
//
// Tier list (reference first):
//   engine/single    caller-only ScenarioEngine, trace-tier sim
//   engine/threads   worker pool exercised (scenario + tuple parallelism)
//   sim/interp       reference interpreter tier, selected explicitly
//   wire/request     request survives encode→decode, then runs; the
//                    re-encode must also be byte-identical to the first
//   wire/report      report encoding survives decode→re-encode
//   net/loopback     (optional) ShardServer + RemoteShard over real TCP
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "fuzz/generator.hpp"

namespace teamplay::fuzz {

struct OracleConfig {
    /// Workflow knobs shared by every tier (they are part of the cache key,
    /// so all tiers must agree).  Defaults to fuzz_workflow_options().
    core::WorkflowOptions options;
    /// Worker threads of the engine/threads tier.
    std::size_t threads = 2;
    /// Run the net/loopback tier (a real ShardServer + RemoteShard pair on
    /// 127.0.0.1).  Costs a TCP listener per scenario; off by default so
    /// the bounded tier-1 pass stays fast — the sweep and a test subset
    /// switch it on.
    bool loopback = false;

    OracleConfig();
};

/// Workflow options sized for fuzzing: small search populations and few
/// profile runs, so one scenario crosses all tiers in milliseconds while
/// still exercising every stage.  Deterministic — never randomise these;
/// they are part of every cache key and every tier must agree on them.
[[nodiscard]] core::WorkflowOptions fuzz_workflow_options();

/// First disagreement between a tier and the reference encoding.
struct Divergence {
    std::string tier;             ///< tier name (see header comment)
    std::size_t byte_offset = 0;  ///< first differing byte (min size if
                                  ///< one encoding is a prefix)
    std::size_t reference_size = 0;
    std::size_t tier_size = 0;

    [[nodiscard]] std::string to_string() const;
};

/// Outcome of one scenario's tier sweep.
struct OracleResult {
    std::vector<std::string> tiers;       ///< tiers compared, in run order
    std::optional<Divergence> divergence; ///< first mismatch, if any

    [[nodiscard]] bool ok() const { return !divergence.has_value(); }
};

/// Canonical byte encoding of a report for differential comparison: the
/// wire v4 encoding with `stage_laps` cleared (wall-clock laps are the one
/// legitimately non-deterministic field).
[[nodiscard]] std::vector<std::uint8_t> canonical_bytes(
    core::ToolchainReport report);

/// The ScenarioRequest of a generated scenario, over an explicit program
/// (the scenario's own, or a mutant of it — the program must outlive the
/// engine run).  Exposed so mutation checks can run original and mutant
/// through ONE engine: a semantic mutant keeps every entry fingerprint,
/// so it must hit the fingerprint-keyed evaluation cache and reproduce
/// the baseline report byte-for-byte — the cache-canonicalisation
/// contract, asserted end to end.  (A fresh engine would recompute the
/// transformed artifacts from the mutated text; those are embedded in the
/// report, so cross-engine byte-identity under alpha-rename is not a
/// promise the stack makes.)
[[nodiscard]] core::ScenarioRequest scenario_request(
    const GeneratedScenario& scenario, const ir::Program& program,
    const core::WorkflowOptions& options);

class DifferentialOracle {
public:
    explicit DifferentialOracle(OracleConfig config = {});

    /// Run `scenario` through every configured tier.  Throws whatever the
    /// reference tier throws (a generated scenario failing outright is a
    /// generator bug, not a divergence); tier disagreement is returned,
    /// not thrown.
    [[nodiscard]] OracleResult check(const GeneratedScenario& scenario) const;

    /// The reference report of a scenario (engine/single tier), for
    /// callers that compare mutants against the unmutated baseline.
    [[nodiscard]] core::ToolchainReport reference(
        const GeneratedScenario& scenario) const;

    /// Reference run of an explicit (program, scenario) pair — the mutant
    /// path: same platform/CSL/options, different program bytes.
    [[nodiscard]] core::ToolchainReport reference(
        const ir::Program& program, const GeneratedScenario& scenario) const;

    [[nodiscard]] const OracleConfig& config() const { return config_; }

private:
    OracleConfig config_;
};

}  // namespace teamplay::fuzz
