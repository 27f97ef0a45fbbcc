// UAV use case (Sec. IV-C): the complex-architecture workflow on the Apalis
// TK1 — two-pass profiling + scheduling — followed by the mission-level
// battery arithmetic (flight time from mechanical + electronics power).
//
//   $ ./example_uav_mission
#include <cstdio>
#include <iostream>

#include "core/scenario_engine.hpp"
#include "coordination/runtime.hpp"
#include "energy/component_model.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

int main() {
    const auto app = make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);

    std::puts("== pass 1+2: complex-architecture workflow (Fig. 2) ==");
    core::WorkflowOptions options;
    options.profile_runs = 15;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    std::cout << report.summary();

    std::puts("\n--- pass-1 sequential profiling driver (excerpt) ---");
    std::cout << report.sequential_glue.substr(
                     0, std::min<std::size_t>(
                            report.sequential_glue.size(), 600))
              << "...\n";

    // Soft real-time behaviour: fraction of frames meeting every deadline
    // under realistic execution jitter (overlapping frames tolerate misses).
    coordination::RuntimeOptions runtime;
    runtime.jitter_sigma = 0.10;
    runtime.deadline_s = spec.deadline_s;
    const double success = coordination::deadline_success_ratio(
        report.graph, report.schedule, runtime, 500);
    std::printf("\nsoft-RT success ratio over 500 frames: %.1f%%\n",
                success * 100.0);

    // Mission arithmetic: software power from the 200 ms frame schedule.
    const double period = spec.tasks.front().period_s;
    const double frame_energy =
        report.schedule.platform_energy_j(app.platform, period);
    energy::MissionPower mission;
    mission.battery_wh = 65.0;
    mission.mechanical_w = 28.0;  // cruise propulsion [31]
    mission.electronics_w = frame_energy / period;
    std::printf(
        "mission: mech %.0f W + payload %.2f W -> flight time %.0f min\n",
        mission.mechanical_w, mission.electronics_w,
        mission.flight_time_s() / 60.0);

    return report.certificate.all_hold() ? 0 : 1;
}
