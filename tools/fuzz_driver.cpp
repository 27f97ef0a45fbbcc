// fuzz_driver: the generative-fuzzing entry point (DESIGN.md §13).
//
// Replay one seed or sweep many: every scenario is generated from its
// seed, run through the differential oracle's tier sweep, and its
// mutation obligations checked (semantic mutants must keep fingerprints
// and report bytes; invalid mutants must be rejected by ir::validate).
// One FUZZ-REPLAY line per scenario goes to stdout (and --log FILE); on
// any failure the driver prints the exact reproduction command and exits
// non-zero after the sweep completes — CI greps the log, a human greps
// the seed.
//
// Usage:
//   fuzz_driver --seed 0xDEADBEEF          replay one seed
//   fuzz_driver --count 50                 sweep 50 seeds from the default
//   fuzz_driver --seed 7 --count 50        sweep 50 seeds from 7
//   fuzz_driver --budget-s 60              sweep until the wall budget
//   fuzz_driver --log replay.log           also append lines to a file
//   fuzz_driver --loopback                 include the net/loopback tier
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/replay.hpp"
#include "ir/fingerprint.hpp"
#include "ir/validate.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace {

using namespace teamplay;

struct DriverOptions {
    std::uint64_t base_seed = 1;
    std::uint64_t count = 1;
    double budget_s = 0.0;  ///< 0 = no wall-clock budget (count rules)
    std::string log_path;
    bool loopback = false;
};

void usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--seed S] [--count N] [--budget-s T] [--log FILE]"
                 " [--loopback]\n";
}

/// Entry fingerprints of a scenario's program, in task order.
std::vector<std::uint64_t> entry_fingerprints(
    const ir::Program& program, const std::vector<std::string>& entries) {
    std::vector<std::uint64_t> prints;
    prints.reserve(entries.size());
    for (const auto& entry : entries)
        prints.push_back(ir::structural_fingerprint(program, entry));
    return prints;
}

/// Run one seed end to end.  Returns the record that was logged.
fuzz::ReplayRecord run_one(std::uint64_t seed,
                           const fuzz::ProgramGenerator& generator,
                           const fuzz::DifferentialOracle& oracle) {
    fuzz::ReplayRecord record;
    record.seed = seed;
    try {
        const auto scenario = generator.scenario(seed);

        // Tier sweep: every execution tier must agree byte-for-byte.
        const auto result = oracle.check(scenario);
        if (!result.ok()) {
            record.status = "divergence";
            record.detail = result.divergence->to_string();
            return record;
        }

        const auto prints =
            entry_fingerprints(scenario.program, scenario.entries);

        // Semantic mutants: fingerprints must not move, the mutant must
        // stay valid, and — through ONE engine's fingerprint-keyed cache —
        // the mutant's report must be byte-identical to the baseline
        // (see fuzz::scenario_request).  The mutation RNG derives from the
        // seed, so a replay applies the identical mutations.
        core::ScenarioEngine shared_engine;
        const auto baseline_bytes =
            fuzz::canonical_bytes(shared_engine.run(fuzz::scenario_request(
                scenario, scenario.program, oracle.config().options)));
        support::Rng rng(seed ^ 0x5EED5EED5EED5EEDull);
        for (std::size_t m = 0; m < fuzz::kNumSemanticMutations; ++m) {
            const auto mutation = static_cast<fuzz::SemanticMutation>(m);
            ir::Program mutant = scenario.program;
            if (!fuzz::apply_semantic(mutant, scenario.entries.front(),
                                      mutation, rng))
                continue;  // no applicable site: vacuously fine
            const char* broken = nullptr;
            if (!ir::validate(mutant).empty()) {
                broken = "mutant-invalid";
            } else if (entry_fingerprints(mutant, scenario.entries) !=
                       prints) {
                broken = "fingerprint-moved";
            } else if (fuzz::canonical_bytes(shared_engine.run(
                           fuzz::scenario_request(
                               scenario, mutant,
                               oracle.config().options))) !=
                       baseline_bytes) {
                broken = "report-bytes-moved";
            }
            if (broken != nullptr) {
                record.status = "identity-broken";
                record.detail = std::string("mutation=") +
                                std::string(fuzz::name(mutation)) + " " +
                                broken;
                return record;
            }
        }

        // Invalid mutants: ir::validate must reject every one.
        for (std::size_t m = 0; m < fuzz::kNumInvalidMutations; ++m) {
            const auto mutation = static_cast<fuzz::InvalidMutation>(m);
            ir::Program mutant = scenario.program;
            if (!fuzz::inject_invalid(mutant, mutation, rng)) continue;
            if (ir::validate(mutant).empty()) {
                record.status = "invalid-accepted";
                record.detail = std::string("mutation=") +
                                std::string(fuzz::name(mutation));
                return record;
            }
        }

        record.status = "ok";
        record.detail = "tiers=" + std::to_string(result.tiers.size());
    } catch (const std::exception& error) {
        record.status = "error";
        record.detail = error.what();
    }
    return record;
}

}  // namespace

int main(int argc, char** argv) {
    DriverOptions options;
    bool explicit_count = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) return std::nullopt;
            return std::string(argv[++i]);
        };
        // Decimal or 0x hex, nothing else: "2x" is an error, not 2.
        const auto count_value = [&](std::uint64_t& out) {
            const auto text = value();
            if (text && support::parse_count(
                            *text, std::numeric_limits<std::uint64_t>::max(),
                            out))
                return true;
            std::cerr << argv[0] << ": " << arg
                      << " expects a decimal or 0x count, got \""
                      << text.value_or("") << "\"\n";
            return false;
        };
        if (arg == "--seed") {
            if (!count_value(options.base_seed)) {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--count") {
            if (!count_value(options.count)) {
                usage(argv[0]);
                return 2;
            }
            explicit_count = true;
        } else if (arg == "--budget-s") {
            const auto text = value();
            if (!text) {
                usage(argv[0]);
                return 2;
            }
            try {
                options.budget_s = std::stod(*text);
            } catch (const std::exception&) {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--log") {
            const auto text = value();
            if (!text) {
                usage(argv[0]);
                return 2;
            }
            options.log_path = *text;
        } else if (arg == "--loopback") {
            options.loopback = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    const fuzz::ProgramGenerator generator;
    fuzz::OracleConfig oracle_config;
    oracle_config.loopback = options.loopback;
    const fuzz::DifferentialOracle oracle(oracle_config);
    fuzz::ReplayLog log(options.log_path);

    const auto start = std::chrono::steady_clock::now();
    const auto budget_left = [&] {
        if (options.budget_s <= 0.0) return true;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count() < options.budget_s;
    };

    // Budget mode sweeps until the wall clock runs out; count mode runs a
    // fixed number of seeds.  Both walk consecutive seeds from the base so
    // any failure replays as `--seed <that seed>` alone.
    const bool budget_mode = options.budget_s > 0.0 && !explicit_count;
    std::size_t ran = 0;
    std::size_t failures = 0;
    for (std::uint64_t seed = options.base_seed;
         budget_mode ? budget_left()
                     : (ran < options.count && budget_left());
         ++seed, ++ran) {
        const auto record = run_one(seed, generator, oracle);
        log.append(record);
        std::cout << fuzz::format_record(record) << "\n";
        if (record.failed()) {
            ++failures;
            std::cout << "repro: "
                      << fuzz::repro_command(record.seed, options.loopback)
                      << "\n";
            break;  // first failure ends the sweep: the seed is the prize
        }
    }

    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::cout << "fuzz_driver: " << ran + (failures != 0 ? 1 : 0)
              << " scenario(s), " << failures << " failure(s), "
              << elapsed.count() << "s\n";
    return failures == 0 ? 0 : 1;
}
