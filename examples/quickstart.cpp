// Quickstart: annotate a tiny two-task application with ETS budgets in CSL,
// run the predictable-architecture toolchain (Fig. 1) on the simulated
// Nucleo-F091, and inspect the certificate.
//
//   $ ./example_quickstart
#include <cstdio>
#include <iostream>

#include "core/scenario_engine.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "support/units.hpp"
#include "usecases/kernels.hpp"

using namespace teamplay;

int main() {
    // 1. Write the application at the IR level (the stand-in for C source):
    //    a sensor-filter task and a checksum-transmit task over a shared
    //    buffer at address 256.
    ir::Program program;
    program.memory_words = 2048;
    {
        ir::FunctionBuilder b("sense", 0);
        const auto i = b.loop_begin(128);
        // Simple IIR-style smoothing of a synthetic ramp.
        const auto raw = b.and_imm(b.mul_imm(i, 37), 255);
        const auto prev = b.load(b.add_imm(i, 255));
        const auto smoothed = b.shr_imm(b.add(raw, prev), 1);
        b.store(b.add_imm(i, 256), smoothed);
        b.loop_end();
        b.ret(b.imm(0));
        program.add(b.build());
    }
    {
        ir::FunctionBuilder b("report_len", 0);
        b.store(b.imm(16), b.imm(128));  // publish buffer length
        b.ret(b.imm(0));
        program.add(b.build());
    }
    program.add(usecases::make_transmit("send", 256, 16, 128, 24));

    // 2. Annotate it in CSL: ETS budgets as first-class citizens.
    const auto spec = csl::parse(R"(
app quickstart on nucleo-f091 deadline 50ms {
  task sense  { entry sense;      period 50ms; deadline 20ms;
                budget time 10ms; budget energy 10mJ; }
  task len    { entry report_len; period 50ms; deadline 25ms;
                budget time 1ms;  budget energy 1mJ; after sense; }
  task send   { entry send;       period 50ms; deadline 50ms;
                budget time 10ms; budget energy 10mJ; after len; }
}
)");

    // 3. Run the toolchain: multi-criteria compilation, scheduling, glue
    //    code, contract proofs.
    const auto platform = platform::nucleo_f091();
    core::WorkflowOptions options;
    options.compiler.population = 8;
    options.compiler.iterations = 8;
    core::ScenarioEngine engine;
    const auto report = engine.run({.program = &program,
                                    .platform = &platform,
                                    .spec = spec,
                                    .options = options});

    // 4. Inspect the results.
    std::cout << report.summary() << "\n";
    std::cout << "--- generated glue (header) ---\n";
    const auto& glue = report.glue_code;
    std::cout << glue.substr(0, glue.find("*/") + 3) << "\n\n";

    std::cout << "--- per-task Pareto fronts ---\n";
    for (const auto& front : report.fronts) {
        std::printf("%s on class '%s': %zu version(s)\n", front.task.c_str(),
                    front.core_class.empty() ? "any"
                                             : front.core_class.c_str(),
                    front.versions.size());
        for (const auto& version : front.versions)
            std::printf("    %-40s wcet=%-10s wcec=%s\n",
                        version.config.label().c_str(),
                        support::format_time(version.wcet_s).c_str(),
                        support::format_energy(version.wcec_j).c_str());
    }

    const bool ok = report.certificate.all_hold() &&
                    contracts::verify_certificate(report.certificate);
    std::cout << (ok ? "\nquickstart: certificate verified, all budgets met\n"
                     : "\nquickstart: BUDGET VIOLATION\n");
    return ok ? 0 : 1;
}
