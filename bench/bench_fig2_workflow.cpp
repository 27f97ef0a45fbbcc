// Experiment F2 (Fig. 2): the complex-architecture workflow's two passes.
//
// Pass 1 (solid path): sequential glue + PowProfiler measurement of every
// task.  Pass 2 (dashed path): energy-aware parallel schedule built from the
// estimates.  The bench reports what each pass produced and the speedup /
// energy effect of going parallel, plus the profiler's convergence (how the
// estimate tightens with more runs) — the property that makes
// measurement-based budgets usable.  The binary exits 1 when a contract is
// violated.
#include <cstdio>

#include "core/scenario_engine.hpp"
#include "coordination/runtime.hpp"
#include "profiler/pow_profiler.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

bool print_table() {
    const auto app = make_uav_app("jetson-tx2");
    const auto spec = csl::parse(app.csl_source);

    std::puts("=== F2: complex workflow, two passes on Jetson TX2 ===");

    // Pass 1: sequential execution time (what the profiling binary does).
    double sequential_time = 0.0;
    {
        sim::Machine machine(app.program, app.platform.cores[0],
                             app.platform.cores[0].max_opp(), 17);
        machine.poke(uav::kState, 5);
        for (const auto& task : spec.tasks)
            sequential_time += machine.run(task.entry, {}).time_s;
    }

    core::ScenarioEngine engine;
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.spec = spec;
    request.options.profile_runs = 20;
    const auto report = engine.run(request);

    const auto replay = coordination::execute_schedule(
        report.graph, report.schedule,
        coordination::RuntimeOptions{.jitter_sigma = 0.05, .seed = 5});

    std::printf("pass 1: sequential binary %s/frame, profiling glue %zu "
                "bytes\n",
                support::format_time(sequential_time).c_str(),
                report.sequential_glue.size());
    std::printf("pass 2: parallel schedule %s/frame (replayed %s), "
                "glue %zu bytes\n",
                support::format_time(report.schedule.makespan_s).c_str(),
                support::format_time(replay.makespan_s).c_str(),
                report.glue_code.size());
    const bool contracts_hold = report.certificate.all_hold();
    std::printf("certificate: %s (measured evidence: %s)\n",
                contracts_hold ? "all contracts hold" : "VIOLATION",
                report.certificate.fully_static() ? "no" : "yes");
    std::printf("paper:    pass 1 profiles sequentially, pass 2 exploits "
                "platform parallelism\npaper:    complex targets cannot be "
                "statically analysed\nmeasured: parallel schedule is %.2fx "
                "the sequential frame time\n\n",
                report.schedule.makespan_s / sequential_time);

    // Profiler convergence: estimate spread vs number of runs.
    std::puts("PowProfiler convergence on uav_detect (complex core):");
    std::printf("%8s %14s %14s %14s\n", "runs", "mean", "p95", "HWM");
    for (const int runs : {5, 10, 20, 40, 80}) {
        profiler::PowProfiler prof(app.program, app.platform.cores[0], 1,
                                   /*seed=*/99);
        const auto profile =
            prof.profile("uav_detect", profiler::zero_inputs(0), runs);
        std::printf("%8d %14s %14s %14s\n", runs,
                    support::format_time(profile.time_s.mean).c_str(),
                    support::format_time(profile.time_s.p95).c_str(),
                    support::format_time(
                        profile.time_s.high_water_mark())
                        .c_str());
    }
    std::puts("");
    return contracts_hold;
}

}  // namespace

int main() { return print_table() ? 0 : 1; }
