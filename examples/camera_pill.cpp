// Camera-pill use case (Sec. IV-A): run the imaging pipeline functionally on
// the simulated M0+FPGA board, then push it through the full predictable
// toolchain and compare against a traditional compilation.
//
//   $ ./example_camera_pill
#include <cstdio>
#include <iostream>

#include "core/scenario_engine.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

int main() {
    const auto app = make_camera_pill_app();

    // -- functional demo: three frames through the pipeline ------------------
    std::puts("== functional run: 3 frames on the simulated pill ==");
    sim::Machine machine(app.program, app.platform.cores[0], /*opp=*/2);
    stage_xtea_key(machine, {0xA5A5A5A5, 0x5A5A5A5A, 0x0F0F0F0F, 0xF0F0F0F0});
    machine.poke(pill::kState, 20240610);
    for (int frame = 0; frame < 3; ++frame) {
        double frame_time = 0.0;
        double frame_energy = 0.0;
        for (const auto* task : {"pill_capture", "pill_delta",
                                 "pill_compress", "pill_encrypt",
                                 "pill_transmit"}) {
            const auto run = machine.run(task, {});
            frame_time += run.time_s;
            frame_energy += run.energy_j();
        }
        std::printf(
            "frame %d: compressed %3lld words, pipeline %s, %s, crc=%08llx\n",
            frame, static_cast<long long>(machine.peek(pill::kLen)),
            support::format_time(frame_time).c_str(),
            support::format_energy(frame_energy).c_str(),
            static_cast<unsigned long long>(machine.peek(pill::kCrc)));
    }

    // -- toolchain run --------------------------------------------------------
    std::puts("\n== TeamPlay toolchain (Fig. 1) ==");
    const auto spec = csl::parse(app.csl_source);
    core::WorkflowOptions options;
    options.compiler.population = 10;
    options.compiler.iterations = 10;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &app.program,
                                    .platform = &app.platform,
                                    .spec = spec,
                                    .options = options});
    std::cout << report.summary();

    // -- traditional comparison ----------------------------------------------
    std::puts("\n== traditional toolchain comparison ==");
    const auto& m0 = app.platform.cores[0];
    const compiler::MultiCriteriaCompiler mcc(app.program, m0);
    double traditional_wcet = 0.0;
    double teamplay_wcet = 0.0;
    for (const auto& task : spec.tasks) {
        const auto traditional =
            mcc.compile(task.entry, mcc.traditional_config());
        traditional_wcet += traditional.wcet_s;
        const auto* chosen = report.chosen_version(task.name);
        if (chosen != nullptr) teamplay_wcet += chosen->wcet_s;
    }
    std::printf("pipeline WCET: traditional %s vs TeamPlay %s (%.1f%% faster)\n",
                support::format_time(traditional_wcet).c_str(),
                support::format_time(teamplay_wcet).c_str(),
                (1.0 - teamplay_wcet / traditional_wcet) * 100.0);

    return report.certificate.all_hold() ? 0 : 1;
}
