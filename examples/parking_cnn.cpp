// Deep-learning use case (Sec. IV-D): free-parking-spot CNN.
//
// Part 1 (Cortex-M0): the multi-criteria compiler emits several variants of
// the convolution task trading WCET against energy — the variant table the
// paper highlights as a design guide.
// Part 2 (Apalis TK1): the coordination layer schedules the network with
// profiled estimates; compared against a hand-optimised mapping.
//
//   $ ./example_parking_cnn
#include <cstdio>
#include <iostream>

#include "core/scenario_engine.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

int main() {
    // -- functional sanity: classify three synthetic scenes ------------------
    const auto m0_app = make_parking_app(/*on_m0=*/true);
    std::puts("== inference on simulated Nucleo-F091 ==");
    for (const ir::Word seed : {42, 777, 123456}) {
        sim::Machine machine(m0_app.program, m0_app.platform.cores[0], 2);
        stage_parking_weights(machine);
        machine.poke(parking::kState, seed);
        double total_time = 0.0;
        for (const auto* task : {"park_capture", "park_conv", "park_pool",
                                 "park_fc1", "park_fc2", "park_decide"})
            total_time += machine.run(task, {}).time_s;
        std::printf("scene %-7lld -> %lld free spot(s), inference %s\n",
                    static_cast<long long>(seed),
                    static_cast<long long>(machine.peek(parking::kResult)),
                    support::format_time(total_time).c_str());
    }

    // -- part 1: compiler variants on the M0 ---------------------------------
    std::puts("\n== compiler variants of park_conv on Cortex-M0 ==");
    const compiler::MultiCriteriaCompiler mcc(m0_app.program,
                                              m0_app.platform.cores[0]);
    compiler::MultiCriteriaCompiler::Options options;
    options.population = 10;
    options.iterations = 10;
    options.explore_security = false;
    const auto front = mcc.optimise("park_conv", options);
    std::printf("%-44s %-12s %-12s\n", "variant", "WCET", "WCEC");
    for (const auto& version : front)
        std::printf("%-44s %-12s %-12s\n", version.config.label().c_str(),
                    support::format_time(version.wcet_s).c_str(),
                    support::format_energy(version.wcec_j).c_str());

    // -- part 2: coordination-only flow on the TK1 ---------------------------
    std::puts("\n== TK1: coordination layer with profiled estimates ==");
    const auto tk1_app = make_parking_app(/*on_m0=*/false);
    const auto spec = csl::parse(tk1_app.csl_source);
    core::WorkflowOptions wf_options;
    wf_options.profile_runs = 10;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &tk1_app.program,
                                    .platform = &tk1_app.platform,
                                    .spec = spec,
                                    .options = wf_options});
    std::cout << report.schedule.to_string();
    std::printf("certificate: %s\n",
                report.certificate.all_hold() ? "all contracts hold"
                                              : "violation");
    return front.empty() || !report.certificate.all_hold() ? 1 : 0;
}
