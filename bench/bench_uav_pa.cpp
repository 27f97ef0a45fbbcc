// Experiment R4 (Sec. IV-C, precision-agriculture UAV): reproduce "when
// cruising, the mechanical components of the UAV consumed 28 Watts on
// average, whereas software components consumed between 2 and 11 Watts, with
// the toolchain enabling in-flight battery-aware schedulability".
//
// Sweeps software configurations (DVFS level x active pipeline stages) on
// the Jetson TX2 payload and reports the payload power band; then runs the
// battery-aware decision loop: given the remaining battery, pick the most
// capable configuration whose power still meets the required endurance.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/scenario_engine.hpp"
#include "energy/component_model.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

struct SwConfig {
    const char* name;
    std::size_t opp;        ///< DVFS index applied to every version choice
    int frames_per_second;  ///< detection duty cycle
};

constexpr SwConfig kConfigs[] = {
    {"eco       (min freq,  1 fps)", 0, 1},
    {"low       (min freq,  2 fps)", 0, 2},
    {"balanced  (mid freq,  5 fps)", 1, 5},
    {"perf      (mid freq, 10 fps)", 2, 10},
    {"max       (max freq, 20 fps)", 3, 20},
};

/// Hardware substitution note (DESIGN.md §2): the simulated frames are
/// 64x48; the PA camera streams ~1080p, i.e. ~700x the pixel load per frame.
/// Per-core busy time from the schedule is scaled accordingly before being
/// fed into the TX2 component power model — the exact modelling route the
/// paper's UAV work takes (coarse component model x utilisation [18][19]).
constexpr double kResolutionScale = 700.0;

/// Payload power of one configuration: component model driven by the
/// utilisations the schedule induces at the configured frame rate and OPP.
double payload_power_w(const core::ToolchainReport& report,
                       const platform::Platform& platform,
                       const SwConfig& config) {
    // Busy seconds per core class for one frame at the swept OPP.
    double cpu_busy = 0.0;
    double gpu_busy = 0.0;
    double mem_busy = 0.0;
    for (const auto& entry : report.schedule.entries) {
        const auto& core = platform.cores[entry.core];
        const auto from_index = entry.opp_index;
        const auto to_index = std::min(config.opp, core.max_opp());
        const double duration = (entry.finish_s - entry.start_s) *
                                core.opp(from_index).freq_hz /
                                core.opp(to_index).freq_hz;
        if (core.core_class == "gpu")
            gpu_busy += duration;
        else
            cpu_busy += duration;
        mem_busy += duration * 0.6;  // memory controller shadows compute
    }

    // Utilisation at the configured frame rate, with the resolution scale.
    const auto fps = static_cast<double>(config.frames_per_second);
    const auto util = [fps](double busy) {
        return std::min(1.0, busy * kResolutionScale * fps);
    };

    // TX2-style component model (validated in bench_energy_model).
    const energy::ComponentModel model{
        .idle_w = 1.9, .component_w = {4.5, 7.0, 2.0}};
    return model.predict_w({util(cpu_busy), util(gpu_busy), util(mem_busy)});
}

void print_table() {
    const auto app = make_uav_app("jetson-tx2");
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.profile_runs = 15;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});

    std::puts("=== R4: PA UAV payload power band on Jetson TX2 (Sec. IV-C) ===");
    std::printf("%-34s %12s %16s\n", "software configuration", "power",
                "endurance @68Wh");
    std::vector<double> powers;
    for (const auto& config : kConfigs) {
        const double power = payload_power_w(report, app.platform, config);
        powers.push_back(power);
        energy::MissionPower mission{.battery_wh = 68.0,
                                     .mechanical_w = 28.0,
                                     .electronics_w = power};
        std::printf("%-34s %12s %13.0f min\n", config.name,
                    support::format_power(power).c_str(),
                    mission.flight_time_s() / 60.0);
    }
    std::printf("paper:    software band 2..11 W (mechanical 28 W)\n");
    std::printf("measured: software band %.1f..%.1f W (mechanical 28 W)\n\n",
                *std::min_element(powers.begin(), powers.end()),
                *std::max_element(powers.begin(), powers.end()));

    // Battery-aware schedulability [31]: with the battery draining, the
    // planner steps down configurations so that the remaining endurance
    // stays above the 60 minutes needed to finish the survey leg and
    // return.  The most capable configuration that still meets the reserve
    // wins; none feasible means return-to-home now.
    std::puts("in-flight battery-aware selection (60 min reserve needed):");
    for (const double battery_wh : {45.0, 34.0, 32.5, 31.2, 25.0}) {
        const char* chosen = "return to home immediately";
        for (std::size_t i = sizeof kConfigs / sizeof kConfigs[0]; i-- > 0;) {
            energy::MissionPower mission{.battery_wh = battery_wh,
                                         .mechanical_w = 28.0,
                                         .electronics_w = powers[i]};
            if (mission.flight_time_s() >= 60.0 * 60.0) {
                chosen = kConfigs[i].name;
                break;
            }
        }
        std::printf("  battery %5.1f Wh -> %s\n", battery_wh, chosen);
    }
    std::puts("");
}

}  // namespace

int main() {
    print_table();
    return 0;
}
