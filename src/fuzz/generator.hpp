// Seeded generative scenario fuzzing: random, valid-by-construction IR
// programs plus the CSL annotations and platform that turn them into a
// complete ScenarioRequest (DESIGN.md §13).
//
// The generator is the scenario-diversity answer to the five hand-written
// use-case apps: it draws a whole application — call graph, region nesting,
// memory map, task structure — from a single 64-bit seed, through the same
// `ir::FunctionBuilder` front the real apps use, so every generated program
// is well-formed by construction (`ir::validate` clean) and every generated
// scenario runs the full stage pipeline on a real board model.
//
// Reproducibility contract (RamFuzz-style logged replay, reduced to its
// essence): a scenario is a pure function of `(seed, GeneratorConfig)`.
// There is no hidden stream state — `scenario(seed)` always returns the
// same program, CSL text and platform for the same config, so a CI failure
// is replayable from the one-line seed dump (replay.hpp) on any host.
//
// Execution-safety discipline (what "valid by construction" buys):
//   * load/store address registers are only ever materialised from
//     immediates chosen so base + offset stays inside
//     `Program::memory_words` — the simulator's fault bound — and every
//     other register (params, loop indices, loaded words, arithmetic
//     results) is used as a *value* only, never dereferenced.  Profiled
//     tiers run entries with zero arguments over zeroed memory
//     (profiler::zero_inputs), so generated programs execute trap-free on
//     every tier;
//   * dynamic loop trip registers are immediates in [0, bound], so the
//     machine's trip>bound fault can never fire;
//   * function i may only call functions j < i: the call graph is acyclic
//     by construction (the validator's recursion check stays a negative-
//     testing concern, mutator.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "platform/platform.hpp"

namespace teamplay::fuzz {

/// Size/shape budget of one generated scenario.  Every knob bounds the
/// generator from above, so generated scenarios stay tractable for the
/// full differential oracle (a few milliseconds per tier, not minutes).
struct GeneratorConfig {
    /// Functions per program (the first `max_functions` may all become
    /// task entries or stay pure callees).  At least 1.
    std::size_t min_functions = 2;
    std::size_t max_functions = 4;
    /// CSL tasks per app.  At least 1; entries are drawn (with possible
    /// repetition — shared entries exercise the evaluation cache) from the
    /// generated functions.
    std::size_t max_tasks = 3;
    /// Region-tree nesting depth (If/Loop below the body Seq).
    std::size_t max_region_depth = 3;
    /// Straight-line instructions per generated block.
    std::size_t max_block_instrs = 6;
    /// Regions emitted per Seq level.
    std::size_t max_regions_per_seq = 3;
    /// Static trip count cap; bounds follow the trip from above.
    std::int64_t max_loop_trip = 4;
    /// Flat memory size of the generated program, in words.  Also the
    /// simulator's fault bound; the generator keeps every address under
    /// it.  Normalised to at least 128.
    std::size_t memory_words = 1024;
    /// Admit complex boards (profiled flow) in the platform draw.  The
    /// predictable boards stay twice as likely: static analysis is the
    /// cheaper tier and profiling cost scales with OPP count.
    bool allow_complex_platforms = true;
    /// Emit `security` hints (none/balance/ladder/auto) and secret-tagged
    /// registers, exercising the taint/leakage path.
    bool allow_security_hints = true;

    /// Copy with every field clamped into its documented domain.
    [[nodiscard]] GeneratorConfig normalised() const;
};

/// One generated scenario: everything a ScenarioRequest needs, owned.
struct GeneratedScenario {
    std::string name;        ///< "fuzz_<seed hex>", also the CSL app name
    std::uint64_t seed = 0;  ///< the seed that reproduces this scenario
    ir::Program program;
    platform::Platform platform;
    std::string csl_source;  ///< parsed by the pipeline's parse stage
    /// Entry function of each CSL task, in task order (task k's entry).
    std::vector<std::string> entries;
};

class ProgramGenerator {
public:
    explicit ProgramGenerator(GeneratorConfig config = {});

    /// The scenario of one seed: pure, deterministic, config-bound.
    [[nodiscard]] GeneratedScenario scenario(std::uint64_t seed) const;

    [[nodiscard]] const GeneratorConfig& config() const { return config_; }

private:
    GeneratorConfig config_;  ///< already normalised
};

}  // namespace teamplay::fuzz
