// Experiment F1 (Fig. 1): the predictable-architecture workflow end to end.
//
// Validates that every box of the figure produces its artifact on the camera
// pill application — CSL front-end, multi-criteria compiler with the three
// analysers, coordination (schedule + glue), contract system (verified
// certificate) — and reports per-stage toolchain latency.  The binary
// exits 1 when a contract is violated, a proof fails to verify or the
// schedule is infeasible.
#include <chrono>
#include <cstdio>

#include "core/scenario_engine.hpp"
#include "energy/analyser.hpp"
#include "security/taint.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"
#include "wcet/analyser.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool print_table() {
    const auto app = make_camera_pill_app();

    std::puts("=== F1: predictable workflow stages (Fig. 1) ===");
    auto t0 = std::chrono::steady_clock::now();
    const auto spec = csl::parse(app.csl_source);
    std::printf("%-38s %10s   tasks=%zu, POIs with budgets=%zu\n",
                "CSL front-end", support::format_time(seconds_since(t0)).c_str(),
                spec.tasks.size(), spec.tasks.size());

    const auto& m0 = app.platform.cores[0];
    t0 = std::chrono::steady_clock::now();
    const wcet::Analyser wcet_analyser(app.program);
    double total_wcet = 0.0;
    for (const auto& task : spec.tasks)
        total_wcet += wcet_analyser.analyse(task.entry, m0, 2).time_s;
    std::printf("%-38s %10s   pipeline WCET=%s\n", "WCET analyser (aiT role)",
                support::format_time(seconds_since(t0)).c_str(),
                support::format_time(total_wcet).c_str());

    t0 = std::chrono::steady_clock::now();
    const energy::Analyser energy_analyser(app.program);
    double total_wcec = 0.0;
    for (const auto& task : spec.tasks)
        total_wcec += energy_analyser.analyse(task.entry, m0, 2).wcec_j;
    std::printf("%-38s %10s   pipeline WCEC=%s\n", "EnergyAnalyser",
                support::format_time(seconds_since(t0)).c_str(),
                support::format_energy(total_wcec).c_str());

    t0 = std::chrono::steady_clock::now();
    int leaky_tasks = 0;
    for (const auto& task : spec.tasks) {
        const auto report = security::analyze_taint(
            app.program, *app.program.find(task.entry));
        leaky_tasks += report.leaky() ? 1 : 0;
    }
    std::printf("%-38s %10s   leaky tasks=%d\n", "SecurityAnalyser",
                support::format_time(seconds_since(t0)).c_str(), leaky_tasks);

    t0 = std::chrono::steady_clock::now();
    core::ScenarioEngine engine;
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.spec = spec;
    request.options.compiler.population = 10;
    request.options.compiler.iterations = 10;
    const auto report = engine.run(request);
    std::printf("%-38s %10s   versions=%zu fronts\n",
                "multi-criteria compiler + coordination",
                support::format_time(seconds_since(t0)).c_str(),
                report.fronts.size());

    const bool contracts_hold = report.certificate.all_hold();
    const bool proofs_verified =
        contracts::verify_certificate(report.certificate);
    std::printf("%-38s %10s   %s, %s\n", "contract system",
                "-",
                contracts_hold ? "all contracts hold" : "VIOLATION",
                proofs_verified ? "proofs verified" : "PROOF ERROR");
    std::printf("%-38s %10s   glue=%zu bytes, schedule feasible=%s\n\n",
                "certified coordinated binary", "-",
                report.glue_code.size(),
                report.schedule.feasible ? "yes" : "no");
    return contracts_hold && proofs_verified && report.schedule.feasible;
}

}  // namespace

int main() { return print_table() ? 0 : 1; }
