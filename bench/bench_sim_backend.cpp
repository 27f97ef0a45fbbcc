// Experiment E6: simulator execution tiers — interpreter vs pre-decoded
// threaded-dispatch traces (DESIGN.md §9).
//
// Two views:
//
//   1. Kernel microbenchmark, twice: every UAV task entry executed
//      repeatedly on one machine per tier — once on a predictable core
//      (GR712RC LEON3) and once on a complex core (Apalis TK1 A15) —
//      reporting interpreted vs traced instructions/second and asserting
//      that every RunResult of every repetition is bit-identical between
//      tiers, the identity gate that lets the trace tier substitute for
//      the reference semantics anywhere.
//   2. Service delta: the E1-style mixed batch through a multi-worker
//      ScenarioEngine per backend, reporting per-scenario completion
//      latency p50/p95 and the end-to-end speedup.
//
// The process exits non-zero if any repetition on either core diverges, or
// if the aggregate kernel speedup on the *predictable* core falls below
// 2x: CI treats a performance regression of the trace tier the same way it
// treats an identity break.  The floor is gated on the predictable core
// because that is where decode/dispatch elimination is measurable: complex
// cores draw one Gaussian jitter sample per instruction in *both* tiers
// (the identity guarantee fixes the RNG consumption sequence), and that
// mandatory shared cost bounds any tier speedup well below 2x regardless
// of how fast dispatch gets.  The complex-core table is still reported and
// identity-gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "platform/platform.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

constexpr int kReps = 40;
/// Timed passes per (kernel, tier); the fastest pass is the throughput
/// estimate.  The bench machine is shared, so any single pass can be
/// inflated by scheduler preemption — the minimum over a few passes is the
/// standard contention-robust estimator, and every rep of every pass still
/// feeds the identity check.
constexpr int kPasses = 3;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct KernelRow {
    std::string entry;
    double interp_ips = 0.0;
    double trace_ips = 0.0;
    double speedup = 0.0;
    std::int64_t instrs_per_run = 0;
    bool identical = true;
};

/// One timed pass: kReps runs of `entry` on `machine`, each result
/// appended to `results`.  Returns the pass's wall time.
double timed_pass(sim::Machine& machine, const std::string& entry,
                  const std::vector<ir::Word>& args,
                  std::vector<sim::RunResult>& results) {
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep)
        results.push_back(machine.run(entry, args));
    return seconds_since(start);
}

bool identical_runs(const sim::RunResult& a, const sim::RunResult& b) {
    return a.cycles == b.cycles && a.time_s == b.time_s &&
           a.dynamic_energy_j == b.dynamic_energy_j &&
           a.static_energy_j == b.static_energy_j &&
           a.ret_value == b.ret_value &&
           a.instrs_executed == b.instrs_executed &&
           a.class_counts == b.class_counts;
}

/// Measure every task entry of `app` on `core` (which need not belong to
/// the app's own platform: the predictable-core view runs the same UAV
/// kernels on a LEON3 model).
std::vector<KernelRow> kernel_table(const UseCaseApp& app,
                                    const platform::Core& core,
                                    const char* platform_name) {
    const auto spec = csl::parse(app.csl_source);
    const auto cache = std::make_shared<sim::TraceCache>();
    std::vector<KernelRow> rows;

    std::printf("=== E6: sim backends, %s kernels on %s (core %s, %s) ===\n",
                app.name.c_str(), platform_name, core.name.c_str(),
                core.model.predictable ? "predictable" : "complex");
    for (const auto& task : spec.tasks) {
        const ir::Function* fn = app.program.find(task.entry);
        if (fn == nullptr) continue;
        KernelRow row;
        row.entry = task.entry;

        // One machine per tier with equal seeds keeps the stochastic cycle
        // sequences aligned, so rep i is comparable bit-for-bit (control
        // flow is deterministic, so every pass executes the same
        // instruction count).
        sim::Machine interp_machine(app.program, core, /*opp_index=*/0,
                                    /*seed=*/42,
                                    sim::SimOptions{sim::SimBackend::kInterp,
                                                    nullptr});
        sim::Machine trace_machine(app.program, core, /*opp_index=*/0,
                                   /*seed=*/42,
                                   sim::SimOptions{sim::SimBackend::kTrace,
                                                   cache});
        // Hoist trace resolution (compilation) out of the timed region.
        (void)trace_machine.resolve_trace(task.entry);
        const std::vector<ir::Word> args(
            static_cast<std::size_t>(fn->param_count), 0);
        std::vector<sim::RunResult> interp;
        std::vector<sim::RunResult> trace;
        interp.reserve(static_cast<std::size_t>(kPasses) * kReps);
        trace.reserve(static_cast<std::size_t>(kPasses) * kReps);
        // The tiers alternate pass by pass, so a slow phase of the host
        // slows both tiers' passes instead of all of one tier's; each
        // tier keeps its fastest pass.
        double interp_s = 0.0;
        double trace_s = 0.0;
        for (int pass = 0; pass < kPasses; ++pass) {
            const double interp_pass_s =
                timed_pass(interp_machine, task.entry, args, interp);
            const double trace_pass_s =
                timed_pass(trace_machine, task.entry, args, trace);
            if (pass == 0 || interp_pass_s < interp_s)
                interp_s = interp_pass_s;
            if (pass == 0 || trace_pass_s < trace_s) trace_s = trace_pass_s;
        }

        std::int64_t total_instrs = 0;
        for (std::size_t rep = 0; rep < interp.size(); ++rep) {
            total_instrs += interp[rep].instrs_executed;
            if (!identical_runs(interp[rep], trace[rep]))
                row.identical = false;
        }
        row.instrs_per_run = total_instrs / (kReps * kPasses);
        // Throughput = one pass's instructions over the fastest pass.
        const auto pass_instrs =
            static_cast<double>(total_instrs) / kPasses;
        row.interp_ips = pass_instrs / interp_s;
        row.trace_ips = pass_instrs / trace_s;
        row.speedup = row.trace_ips / row.interp_ips;
        std::printf("%-18s %8lld instrs  interp %9.2f Minstr/s  "
                    "trace %9.2f Minstr/s  %5.2fx %s\n",
                    row.entry.c_str(),
                    static_cast<long long>(row.instrs_per_run),
                    row.interp_ips / 1e6, row.trace_ips / 1e6, row.speedup,
                    row.identical ? "(identical)" : "(MISMATCH!)");
        rows.push_back(std::move(row));
    }
    return rows;
}

struct ServiceRow {
    double wall_s = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

/// E1-style mixed batch through a 4-worker engine on one backend;
/// completion latencies measured from batch start (all requests are
/// submitted up front, so this is queueing + service time).
ServiceRow service_run(const std::vector<UseCaseApp>& apps,
                       sim::SimBackend backend) {
    core::ScenarioEngine::Options options;
    options.worker_threads = 4;
    options.sim = sim::SimOptions{backend, nullptr};
    core::ScenarioEngine engine(options);

    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps) {
        for (const int variant : {0, 1}) {
            core::ScenarioRequest request;
            request.program = &app.program;
            request.platform = &app.platform;
            request.csl_source = app.csl_source;
            request.options.compiler.population = 6;
            request.options.compiler.iterations = 6;
            request.options.profile_runs = 10;
            request.options.scheduler.anneal_iterations = 80;
            if (variant == 1) request.options.scheduler.seed = 7;
            request.label = app.name + "/v" + std::to_string(variant);
            requests.push_back(std::move(request));
        }
    }

    std::vector<double> latencies_s(requests.size(), 0.0);
    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(requests.size());
    const auto start = std::chrono::steady_clock::now();
    for (auto& request : requests) {
        const std::size_t index = tickets.size();
        tickets.push_back(engine.submit(
            request, [&latencies_s, index, start](
                         const core::ScenarioOutcome&) {
                latencies_s[index] = seconds_since(start);
            }));
    }
    for (auto& ticket : tickets) ticket.wait();

    ServiceRow row;
    row.wall_s = seconds_since(start);
    auto sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double q) {
        return 1e3 * sorted[static_cast<std::size_t>(
                         q * static_cast<double>(sorted.size() - 1))];
    };
    row.p50_ms = at(0.50);
    row.p95_ms = at(0.95);
    return row;
}

}  // namespace

/// Aggregate over a kernel table: total instructions over total wall time
/// per tier (instrs/ips recovers each kernel's wall clock).
struct Aggregate {
    double interp_ips = 0.0;
    double trace_ips = 0.0;
    double speedup = 0.0;
    bool identical = true;
};

Aggregate aggregate_of(const std::vector<KernelRow>& rows) {
    Aggregate agg;
    double interp_wall = 0.0;
    double trace_wall = 0.0;
    std::int64_t total_instrs = 0;
    for (const auto& row : rows) {
        const double instrs =
            static_cast<double>(row.instrs_per_run) * kReps;
        interp_wall += instrs / row.interp_ips;
        trace_wall += instrs / row.trace_ips;
        total_instrs += row.instrs_per_run * kReps;
        agg.identical = agg.identical && row.identical;
    }
    agg.interp_ips = static_cast<double>(total_instrs) / interp_wall;
    agg.trace_ips = static_cast<double>(total_instrs) / trace_wall;
    agg.speedup = agg.trace_ips / agg.interp_ips;
    std::printf("aggregate: interp %.2f Minstr/s, trace %.2f Minstr/s "
                "(%.2fx), identity %s\n",
                agg.interp_ips / 1e6, agg.trace_ips / 1e6, agg.speedup,
                agg.identical ? "OK" : "BROKEN");
    return agg;
}

int main() {
    const auto uav = make_uav_app("apalis-tk1");
    const auto leon3 = platform::gr712rc();

    const auto pred_rows =
        kernel_table(uav, leon3.cores.front(), leon3.name.c_str());
    const auto pred_agg = aggregate_of(pred_rows);
    const auto complex_rows = kernel_table(
        uav, uav.platform.cores.front(), uav.platform.name.c_str());
    const auto complex_agg = aggregate_of(complex_rows);

    const bool all_identical = pred_agg.identical && complex_agg.identical;

    std::vector<UseCaseApp> service_apps;
    service_apps.push_back(make_uav_app("apalis-tk1"));
    service_apps.push_back(make_rover_app("apalis-tk1"));
    const auto interp_service =
        service_run(service_apps, sim::SimBackend::kInterp);
    const auto trace_service =
        service_run(service_apps, sim::SimBackend::kTrace);
    std::printf("service (interp): %.3f s wall, p50 %8.2f ms, p95 %8.2f ms\n",
                interp_service.wall_s, interp_service.p50_ms,
                interp_service.p95_ms);
    std::printf("service (trace):  %.3f s wall, p50 %8.2f ms, p95 %8.2f ms "
                "(%.2fx end-to-end)\n",
                trace_service.wall_s, trace_service.p50_ms,
                trace_service.p95_ms,
                interp_service.wall_s / trace_service.wall_s);

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: trace tier diverged from interpreter\n");
        return 1;
    }
    if (pred_agg.speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: predictable-core trace tier speedup %.2fx below "
                     "the 2x floor\n",
                     pred_agg.speedup);
        return 1;
    }
    return 0;
}
