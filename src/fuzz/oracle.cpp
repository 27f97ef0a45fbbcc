#include "fuzz/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/wire.hpp"
#include "net/remote_shard.hpp"
#include "net/shard_server.hpp"

namespace teamplay::fuzz {

core::ScenarioRequest scenario_request(const GeneratedScenario& scenario,
                                       const ir::Program& program,
                                       const core::WorkflowOptions& options) {
    core::ScenarioRequest request;
    request.program = &program;
    request.platform = &scenario.platform;
    request.csl_source = scenario.csl_source;
    request.options = options;
    request.label = scenario.name;
    return request;
}

namespace {

std::size_t first_mismatch(const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b) {
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t offset = 0;
    while (offset < n && a[offset] == b[offset]) ++offset;
    return offset;
}

}  // namespace

core::WorkflowOptions fuzz_workflow_options() {
    core::WorkflowOptions options;
    // Small search budgets: still multi-version, still annealed, but one
    // scenario crosses all tiers in milliseconds.  These feed every cache
    // key, so every tier runs the exact same configuration.
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 2;
    options.scheduler.anneal_iterations = 40;
    return options;
}

OracleConfig::OracleConfig() : options(fuzz_workflow_options()) {}

std::string Divergence::to_string() const {
    std::ostringstream out;
    out << "tier=" << tier << " first-diff-byte=" << byte_offset
        << " reference-bytes=" << reference_size
        << " tier-bytes=" << tier_size;
    return out.str();
}

std::vector<std::uint8_t> canonical_bytes(core::ToolchainReport report) {
    report.stage_laps.clear();
    return core::wire::encode(report);
}

DifferentialOracle::DifferentialOracle(OracleConfig config)
    : config_(std::move(config)) {}

core::ToolchainReport DifferentialOracle::reference(
    const GeneratedScenario& scenario) const {
    return reference(scenario.program, scenario);
}

core::ToolchainReport DifferentialOracle::reference(
    const ir::Program& program, const GeneratedScenario& scenario) const {
    core::ScenarioEngine engine;  // caller-only, trace-tier sim
    return engine.run(scenario_request(scenario, program, config_.options));
}

OracleResult DifferentialOracle::check(
    const GeneratedScenario& scenario) const {
    OracleResult result;
    const auto request =
        scenario_request(scenario, scenario.program, config_.options);

    result.tiers.push_back("engine/single");
    const auto reference_bytes = canonical_bytes([&] {
        core::ScenarioEngine engine;
        return engine.run(request);
    }());

    // Run one tier and compare its bytes against the reference; stop the
    // sweep at the first divergence so the recorded tier pair is minimal.
    const auto run_tier = [&](const std::string& tier, auto&& produce) {
        if (result.divergence.has_value()) return;
        result.tiers.push_back(tier);
        const std::vector<std::uint8_t> bytes = produce();
        if (bytes == reference_bytes) return;
        result.divergence =
            Divergence{tier, first_mismatch(reference_bytes, bytes),
                       reference_bytes.size(), bytes.size()};
    };

    run_tier("engine/threads", [&] {
        core::ScenarioEngine::Options options;
        options.worker_threads = config_.threads;
        core::ScenarioEngine engine(options);
        return canonical_bytes(engine.run(request));
    });

    run_tier("sim/interp", [&] {
        core::ScenarioEngine::Options options;
        options.sim.backend = sim::SimBackend::kInterp;
        core::ScenarioEngine engine(options);
        return canonical_bytes(engine.run(request));
    });

    // Request round-trip: the decoded request must re-encode to the same
    // bytes *and* produce the same report when executed.
    run_tier("wire/request", [&]() -> std::vector<std::uint8_t> {
        const auto encoded = core::wire::encode(request);
        const auto frame = core::wire::decode_request(encoded);
        const auto re_encoded = core::wire::encode(frame.request());
        if (re_encoded != encoded) {
            // encode∘decode identity broke on the *request* bytes; record
            // against those, not the report encoding.
            result.divergence = Divergence{
                "wire/request", first_mismatch(encoded, re_encoded),
                encoded.size(), re_encoded.size()};
            return reference_bytes;
        }
        core::ScenarioEngine engine;
        return canonical_bytes(engine.run(frame.request()));
    });

    run_tier("wire/report", [&] {
        return core::wire::encode(core::wire::decode_report(reference_bytes));
    });

    if (config_.loopback) {
        run_tier("net/loopback", [&] {
            net::ShardServer::Options server_options;
            server_options.engine.worker_threads = 1;
            net::ShardServer server(server_options);
            net::RemoteShard::Options remote_options;
            remote_options.port = server.port();
            net::RemoteShard remote(remote_options);
            return canonical_bytes(remote.submit(request).get());
        });
    }

    return result;
}

}  // namespace teamplay::fuzz
