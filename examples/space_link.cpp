// Space use case (Sec. IV-B): image downlink over SpaceWire on the dual-core
// GR712RC under RTEMS.  Runs the predictable toolchain, prints the dual-core
// schedule and a slice of the generated RTEMS glue code.
//
//   $ ./example_space_link
#include <cstdio>
#include <iostream>

#include "core/scenario_engine.hpp"
#include "coordination/runtime.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

int main() {
    const auto app = make_space_app();
    const auto spec = csl::parse(app.csl_source);

    core::WorkflowOptions options;
    options.compiler.population = 8;
    options.compiler.iterations = 8;
    options.scheduler.objective =
        coordination::Scheduler::Objective::kEnergy;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});

    std::cout << report.summary() << "\n";

    // Both LEON3 cores should carry work (image chain + telemetry chain).
    bool core0 = false;
    bool core1 = false;
    for (const auto& entry : report.schedule.entries) {
        core0 |= entry.core == 0;
        core1 |= entry.core == 1;
    }
    std::printf("dual-core utilisation: core0=%s core1=%s\n",
                core0 ? "busy" : "idle", core1 ? "busy" : "idle");

    // Deterministic runtime replay: all deadlines must hold.
    const auto replay =
        coordination::execute_schedule(report.graph, report.schedule, {});
    std::printf("runtime replay: %d deadline miss(es), makespan %s\n",
                replay.deadline_misses,
                support::format_time(replay.makespan_s).c_str());

    std::puts("\n--- generated RTEMS glue (excerpt) ---");
    const auto& glue = report.glue_code;
    std::cout << glue.substr(0, std::min<std::size_t>(glue.size(), 900))
              << "...\n";

    return report.certificate.all_hold() && replay.deadline_misses == 0 ? 0
                                                                        : 1;
}
