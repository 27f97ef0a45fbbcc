#include "catalog.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fuzz/oracle.hpp"

namespace perfbench {

using teamplay::core::ScenarioRequest;
using teamplay::core::WorkflowOptions;
namespace usecases = teamplay::usecases;

std::string Config::label() const {
    return app + "/c" + std::to_string(compiler_seed) + "/s" +
           std::to_string(scheduler_seed) + (makespan ? "/mk" : "/en");
}

WorkflowOptions Config::options() const {
    // Fixed search and profiling effort (the CLI's --all settings); only
    // the seeds and the objective vary between configurations.
    WorkflowOptions options;
    options.compiler.population = 10;
    options.compiler.iterations = 10;
    options.compiler.seed = compiler_seed;
    options.profile_runs = 15;
    options.scheduler.seed = scheduler_seed;
    if (makespan)
        options.scheduler.objective =
            teamplay::coordination::Scheduler::Objective::kMakespan;
    return options;
}

const std::vector<std::string>& Catalog::all_keys() {
    static const std::vector<std::string> keys = {
        "pill",    "space",   "parking-m0", "parking-tk1",
        "uav-tk1", "uav-tx2", "uav-nano",   "rover-tk1"};
    return keys;
}

namespace {

usecases::UseCaseApp make_app(const std::string& key) {
    if (key == "pill") return usecases::make_camera_pill_app();
    if (key == "space") return usecases::make_space_app();
    if (key == "parking-m0") return usecases::make_parking_app(true);
    if (key == "parking-tk1") return usecases::make_parking_app(false);
    if (key == "uav-tk1") return usecases::make_uav_app("apalis-tk1");
    if (key == "uav-tx2") return usecases::make_uav_app("jetson-tx2");
    if (key == "uav-nano") return usecases::make_uav_app("jetson-nano");
    if (key == "rover-tk1") return usecases::make_rover_app("apalis-tk1");
    throw std::invalid_argument("unknown app key: " + key);
}

}  // namespace

Catalog::Catalog(const std::vector<std::string>& keys) {
    for (const auto& key : keys.empty() ? all_keys() : keys)
        apps_.emplace(key,
                      std::make_unique<usecases::UseCaseApp>(make_app(key)));
}

const usecases::UseCaseApp& Catalog::app(const std::string& key) const {
    const auto it = apps_.find(key);
    if (it == apps_.end())
        throw std::invalid_argument("app not in catalog: " + key);
    return *it->second;
}

ScenarioRequest Catalog::request(const Config& config) const {
    const auto& use_case = app(config.app);
    ScenarioRequest request;
    request.program = &use_case.program;
    request.platform = &use_case.platform;
    request.csl_source = use_case.csl_source;
    request.options = config.options();
    request.label = config.label();
    return request;
}

bool is_static_app(const std::string& key) {
    return key == "pill" || key == "space" || key == "parking-m0";
}

// -- universes ----------------------------------------------------------------

std::vector<Config> cold_sweep_universe() {
    std::vector<Config> configs;
    for (const auto& app : Catalog::all_keys())
        for (const std::uint64_t seed : {11, 22, 33})
            for (const bool makespan : {false, true})
                configs.push_back({app, seed, 42, makespan});
    return configs;
}

std::vector<Config> service_warm_universe() {
    std::vector<Config> configs;
    for (const char* app :
         {"pill", "space", "parking-m0", "uav-tk1", "rover-tk1"})
        for (std::uint64_t seed = 1; seed <= 16; ++seed)
            configs.push_back({app, 42, seed, false});
    return configs;
}

std::vector<Config> service_cold_pool() {
    static constexpr const char* kApps[] = {"pill", "space", "parking-m0"};
    std::vector<Config> configs;
    for (std::uint64_t i = 0; i < 192; ++i)
        configs.push_back({kApps[i % 3], 1000 + i, 1, false});
    return configs;
}

std::vector<Config> remote_warm_universe() {
    std::vector<Config> configs;
    for (const char* app : {"pill", "space", "parking-m0", "uav-tk1"})
        for (std::uint64_t seed = 1; seed <= 16; ++seed)
            configs.push_back({app, 42, seed, false});
    return configs;
}

std::vector<Config> universe_of(const std::string& workload) {
    if (workload == "cold_sweep") return cold_sweep_universe();
    if (workload == "remote_warm") return remote_warm_universe();
    if (workload == "service_mix") {
        auto configs = service_warm_universe();
        const auto cold = service_cold_pool();
        configs.insert(configs.end(), cold.begin(), cold.end());
        return configs;
    }
    throw std::invalid_argument("unknown workload: " + workload);
}

// -- golden digests -----------------------------------------------------------

std::string fnv_hex(const void* data, std::size_t size) {
    std::uint64_t hash = 14695981039346656037ULL;
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kHex[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

Digest digest_of(const teamplay::core::ToolchainReport& report) {
    const std::string text = report.certificate.to_text();
    const auto bytes = teamplay::fuzz::canonical_bytes(report);
    return {fnv_hex(text.data(), text.size()),
            fnv_hex(bytes.data(), bytes.size())};
}

std::map<std::string, Digest> load_golden(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read golden file " + path);
    std::map<std::string, Digest> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string label;
        Digest digest;
        if (!(fields >> label >> digest.certificate >> digest.canonical))
            throw std::runtime_error("malformed golden line: " + line);
        golden[label] = digest;
    }
    if (golden.empty())
        throw std::runtime_error("empty golden file " + path);
    return golden;
}

void write_golden(const std::string& workload, const std::string& path) {
    const auto configs = universe_of(workload);
    const Catalog catalog;
    std::vector<ScenarioRequest> requests;
    for (const auto& config : configs)
        requests.push_back(catalog.request(config));
    // Reference tier: caller-only engine (reports are worker-count and
    // cache-state invariant, which the repository's own gates pin).
    teamplay::core::ScenarioEngine engine;
    const auto reports = engine.run_all(requests);
    std::ofstream out(path);
    out << "# golden digests for workload " << workload
        << ": <label> <fnv64(certificate.to_text())> "
           "<fnv64(fuzz::canonical_bytes(report))>\n";
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto digest = digest_of(reports[i]);
        out << configs[i].label() << ' ' << digest.certificate << ' '
            << digest.canonical << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
