// Fixed-seed generative fuzzing suite (DESIGN.md §13): the tier-1 face of
// the fuzz/ subsystem.  The CI sweep explores fresh seeds every run; this
// suite pins a fixed seed block so the obligations themselves are
// regression-tested deterministically:
//   * the generator is a pure function of (seed, config) and everything it
//     emits is valid by construction;
//   * >= 200 generated scenarios cross every differential-oracle tier
//     byte-identically (a small subset also crosses the net/loopback tier);
//   * every semantic mutation preserves entry fingerprints and, through one
//     shared engine's fingerprint-keyed cache, the exact report bytes;
//   * every invalidity injection is rejected by ir::validate;
//   * replay records round-trip through their one-line format and the
//     append-only log file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "core/wire.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/replay.hpp"
#include "ir/fingerprint.hpp"
#include "ir/validate.hpp"
#include "support/rng.hpp"

namespace {

using namespace teamplay;

// The pinned seed block.  Chosen once, arbitrarily; any block works, this
// one stays fixed so failures are comparable across commits.
constexpr std::uint64_t kBaseSeed = 0xF002BA5E00000000ull;

std::vector<std::uint64_t> entry_fingerprints(
    const ir::Program& program, const std::vector<std::string>& entries) {
    std::vector<std::uint64_t> prints;
    prints.reserve(entries.size());
    for (const auto& entry : entries)
        prints.push_back(ir::structural_fingerprint(program, entry));
    return prints;
}

TEST(FuzzGenerator, PureFunctionOfSeed) {
    const fuzz::ProgramGenerator a;
    const fuzz::ProgramGenerator b;
    for (std::uint64_t offset = 0; offset < 16; ++offset) {
        const auto seed = kBaseSeed + offset;
        const auto first = a.scenario(seed);
        const auto second = b.scenario(seed);
        EXPECT_EQ(first.name, second.name);
        EXPECT_EQ(first.csl_source, second.csl_source);
        EXPECT_EQ(first.entries, second.entries);
        EXPECT_EQ(first.platform.name, second.platform.name);
        // The request encoding covers the whole program plus platform and
        // options, so byte-equality here is program-deep determinism.
        const auto options = fuzz::fuzz_workflow_options();
        EXPECT_EQ(core::wire::encode(fuzz::scenario_request(
                      first, first.program, options)),
                  core::wire::encode(fuzz::scenario_request(
                      second, second.program, options)))
            << "seed 0x" << std::hex << seed;
    }
}

TEST(FuzzGenerator, ValidByConstruction) {
    const fuzz::ProgramGenerator generator;
    std::set<std::string> platforms;
    for (std::uint64_t offset = 0; offset < 256; ++offset) {
        const auto scenario = generator.scenario(kBaseSeed + offset);
        const auto errors = ir::validate(scenario.program);
        EXPECT_TRUE(errors.empty())
            << "seed 0x" << std::hex << scenario.seed << ": "
            << errors.front();
        ASSERT_FALSE(scenario.entries.empty());
        for (const auto& entry : scenario.entries)
            EXPECT_NE(scenario.program.find(entry), nullptr) << entry;
        EXPECT_FALSE(scenario.csl_source.empty());
        platforms.insert(scenario.platform.name);
    }
    // The platform draw must actually vary — a constant platform would
    // silently shrink oracle coverage to one board model.
    EXPECT_GT(platforms.size(), 1u);
}

// The headline obligation: >= 200 generated scenarios, every execution
// tier byte-identical to the reference.  Any failure prints the replay
// line and the exact repro command, same as the CI sweep.
TEST(FuzzOracle, TwoHundredScenariosAllTiersByteIdentical) {
    const fuzz::ProgramGenerator generator;
    const fuzz::DifferentialOracle oracle;
    for (std::uint64_t offset = 0; offset < 200; ++offset) {
        const auto seed = kBaseSeed + offset;
        const auto scenario = generator.scenario(seed);
        const auto result = oracle.check(scenario);
        EXPECT_GE(result.tiers.size(), 5u);
        // The reference runs the production trace tier; the interpreter
        // is the differential tier.
        EXPECT_NE(std::find(result.tiers.begin(), result.tiers.end(),
                            "sim/interp"),
                  result.tiers.end());
        if (!result.ok()) {
            fuzz::ReplayRecord record;
            record.seed = seed;
            record.status = "divergence";
            record.detail = result.divergence->to_string();
            FAIL() << fuzz::format_record(record) << "\n  repro: "
                   << fuzz::repro_command(seed, /*loopback=*/false);
        }
    }
}

// A small subset also crosses a real TCP hop (ShardServer + RemoteShard on
// 127.0.0.1): the wire framing and the remote execution path must not
// perturb a single report byte either.
TEST(FuzzOracle, LoopbackSubsetByteIdentical) {
    const fuzz::ProgramGenerator generator;
    fuzz::OracleConfig config;
    config.loopback = true;
    const fuzz::DifferentialOracle oracle(config);
    for (std::uint64_t offset = 0; offset < 3; ++offset) {
        const auto seed = kBaseSeed + offset;
        const auto result = oracle.check(generator.scenario(seed));
        EXPECT_NE(std::find(result.tiers.begin(), result.tiers.end(),
                            "net/loopback"),
                  result.tiers.end());
        EXPECT_TRUE(result.ok())
            << result.divergence->to_string() << "\n  repro: "
            << fuzz::repro_command(seed, /*loopback=*/true);
    }
}

// Semantic mutants: the program text changes, the meaning does not.  The
// entry fingerprints must hold, and running original then mutant through
// ONE engine must reproduce the baseline report byte-for-byte via the
// fingerprint-keyed evaluation cache (fuzz::scenario_request documents why
// a fresh engine per run is NOT the contract).
TEST(FuzzMutator, SemanticMutationsPreserveFingerprintAndReportBytes) {
    const fuzz::ProgramGenerator generator;
    const auto options = fuzz::fuzz_workflow_options();
    std::size_t applied = 0;
    for (std::uint64_t offset = 0; offset < 24; ++offset) {
        const auto seed = kBaseSeed + offset;
        const auto scenario = generator.scenario(seed);
        const auto prints =
            entry_fingerprints(scenario.program, scenario.entries);
        core::ScenarioEngine engine;
        const auto baseline = fuzz::canonical_bytes(engine.run(
            fuzz::scenario_request(scenario, scenario.program, options)));
        support::Rng rng(seed ^ 0x5EED5EED5EED5EEDull);
        for (std::size_t m = 0; m < fuzz::kNumSemanticMutations; ++m) {
            const auto mutation = static_cast<fuzz::SemanticMutation>(m);
            ir::Program mutant = scenario.program;
            if (!fuzz::apply_semantic(mutant, scenario.entries.front(),
                                      mutation, rng))
                continue;
            ++applied;
            EXPECT_TRUE(ir::validate(mutant).empty())
                << fuzz::name(mutation) << " seed 0x" << std::hex << seed;
            EXPECT_EQ(entry_fingerprints(mutant, scenario.entries), prints)
                << fuzz::name(mutation) << " moved a fingerprint, seed 0x"
                << std::hex << seed;
            EXPECT_EQ(fuzz::canonical_bytes(engine.run(
                          fuzz::scenario_request(scenario, mutant, options))),
                      baseline)
                << fuzz::name(mutation) << " moved report bytes, seed 0x"
                << std::hex << seed;
        }
    }
    // The suite is vacuous if mutations never find a site.
    EXPECT_GE(applied, 24u * 2);
}

// Invalid mutants: every injection class must be rejected, for every seed
// it applies to.  (tests/test_validate.cpp pins the classes one by one on
// hand-built programs; this closes the loop on generated ones.)
TEST(FuzzMutator, InvalidMutationsAllRejected) {
    const fuzz::ProgramGenerator generator;
    std::size_t applied = 0;
    for (std::uint64_t offset = 0; offset < 32; ++offset) {
        const auto seed = kBaseSeed + offset;
        const auto scenario = generator.scenario(seed);
        support::Rng rng(seed ^ 0xBAD5EED0BAD5EED0ull);
        for (std::size_t m = 0; m < fuzz::kNumInvalidMutations; ++m) {
            const auto mutation = static_cast<fuzz::InvalidMutation>(m);
            ir::Program mutant = scenario.program;
            if (!fuzz::inject_invalid(mutant, mutation, rng)) continue;
            ++applied;
            EXPECT_FALSE(ir::validate(mutant).empty())
                << fuzz::name(mutation) << " accepted, seed 0x" << std::hex
                << seed;
        }
    }
    // Nearly every injection synthesises its own site; a low count means
    // the injector itself regressed.
    EXPECT_GE(applied, 32u * (fuzz::kNumInvalidMutations - 2));
}

TEST(FuzzReplay, FormatParseRoundTrip) {
    fuzz::ReplayRecord record;
    record.seed = 0x00000000DEADBEEFull;
    record.status = "divergence";
    record.detail = "tier=sim/interp byte_offset=17";
    const auto line = fuzz::format_record(record);
    EXPECT_EQ(line.rfind("FUZZ-REPLAY ", 0), 0u) << line;
    const auto parsed = fuzz::parse_record(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->seed, record.seed);
    EXPECT_EQ(parsed->status, record.status);
    EXPECT_EQ(parsed->detail, record.detail);
    EXPECT_TRUE(parsed->failed());

    // Newlines in the detail must flatten: the log stays one line a record.
    record.detail = "first\nsecond";
    const auto flattened = fuzz::format_record(record);
    EXPECT_EQ(flattened.find('\n'), std::string::npos);

    // Non-record lines grep clean.
    EXPECT_FALSE(fuzz::parse_record("random stderr chatter").has_value());
    EXPECT_FALSE(fuzz::parse_record("").has_value());

    EXPECT_NE(fuzz::repro_command(record.seed, false).find("deadbeef"),
              std::string::npos);
    EXPECT_NE(fuzz::repro_command(record.seed, true).find("--loopback"),
              std::string::npos);
}

TEST(FuzzReplay, LogFileSurvivesAndReloads) {
    const std::string path =
        ::testing::TempDir() + "fuzz_replay_test.log";
    std::remove(path.c_str());
    {
        fuzz::ReplayLog log(path);
        fuzz::ReplayRecord ok;
        ok.seed = 1;
        ok.status = "ok";
        ok.detail = "tiers=6";
        log.append(ok);
        fuzz::ReplayRecord bad;
        bad.seed = 2;
        bad.status = "invalid-accepted";
        bad.detail = "mutation=recursion";
        log.append(bad);
        EXPECT_EQ(log.records().size(), 2u);
        EXPECT_EQ(log.failures(), 1u);
    }
    // Each append is an open-append-close, so the file is complete even
    // though the log object is gone (a crashed sweep leaves every line).
    const auto loaded = fuzz::load_replay_log(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].seed, 1u);
    EXPECT_EQ(loaded[0].status, "ok");
    EXPECT_EQ(loaded[1].seed, 2u);
    EXPECT_EQ(loaded[1].detail, "mutation=recursion");
    std::remove(path.c_str());
}

}  // namespace
