// Inputs of the benchmark: the use-case apps, the finite universe of
// scenario configurations each workload draws from, and the golden
// digests that pin every configuration's output.
//
// A workload's seed only picks *which* configurations of its universe are
// issued, in what order and when; the universe itself is fixed, so every
// output any seed can produce has a pinned digest in golden/<workload>.txt.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "usecases/apps.hpp"

namespace perfbench {

/// One scenario configuration: an app on its board plus the option values
/// that influence output bytes.
struct Config {
    std::string app;  ///< catalog key, e.g. "uav-tx2"
    std::uint64_t compiler_seed = 42;
    std::uint64_t scheduler_seed = 1;
    bool makespan = false;  ///< scheduler objective (default: energy)

    [[nodiscard]] std::string label() const;
    [[nodiscard]] teamplay::core::WorkflowOptions options() const;
};

/// The use-case apps keyed by "<app>-<board>" ("pill", "space",
/// "parking-m0", "parking-tk1", "uav-tk1", "uav-tx2", "uav-nano",
/// "rover-tk1").  Owns every program and platform a request points to.
class Catalog {
public:
    /// Builds only the apps named (all of them when empty).
    explicit Catalog(const std::vector<std::string>& keys = {});

    [[nodiscard]] const teamplay::usecases::UseCaseApp& app(
        const std::string& key) const;

    /// A request for `config`; the catalog must outlive it.
    [[nodiscard]] teamplay::core::ScenarioRequest request(
        const Config& config) const;

    [[nodiscard]] static const std::vector<std::string>& all_keys();

private:
    std::map<std::string, std::unique_ptr<teamplay::usecases::UseCaseApp>>
        apps_;
};

/// Apps whose platform is predictable (static Fig. 1 flow).
[[nodiscard]] bool is_static_app(const std::string& key);

// -- universes ----------------------------------------------------------------

/// cold_sweep: every app on every board it supports x compiler seeds
/// {11, 22, 33} x both scheduler objectives (48 configurations).
[[nodiscard]] std::vector<Config> cold_sweep_universe();

/// service_mix, warm part: five known (app, board) pairs x scheduler seeds
/// 1..16 (80 configurations sharing five analysis keys sets).
[[nodiscard]] std::vector<Config> service_warm_universe();

/// service_mix, cold part: the i-th cold request of a run uses entry i
/// (mod the pool size); each entry carries analysis keys no other entry
/// shares (a fresh compiler seed on a static app).
[[nodiscard]] std::vector<Config> service_cold_pool();

/// remote_warm: the predictable apps (weighted 3:1) plus the UAV on the
/// TK1, scheduler seeds 1..16.
[[nodiscard]] std::vector<Config> remote_warm_universe();

/// Union of the universes a workload can issue.
[[nodiscard]] std::vector<Config> universe_of(const std::string& workload);

// -- golden digests -----------------------------------------------------------

/// FNV-1a 64 of a byte string, as 16 lowercase hex digits.
[[nodiscard]] std::string fnv_hex(const void* data, std::size_t size);

struct Digest {
    std::string certificate;  ///< of certificate.to_text()
    std::string canonical;    ///< of fuzz::canonical_bytes(report)

    bool operator==(const Digest&) const = default;
};

[[nodiscard]] Digest digest_of(const teamplay::core::ToolchainReport& report);

/// label -> digest, read from a golden file ("<label> <cert> <canonical>"
/// per line).  Throws when the file is missing or malformed.
[[nodiscard]] std::map<std::string, Digest> load_golden(
    const std::string& path);

/// Compute and write the golden file of `workload` with a reference
/// (caller-only) engine.  Used once, when the benchmark is defined.
void write_golden(const std::string& workload, const std::string& path);

}  // namespace perfbench
