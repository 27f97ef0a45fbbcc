// Experiment E1: ScenarioEngine batch throughput.
//
// Runs a mixed batch of predictable (Fig. 1) and complex (Fig. 2) scenarios
// — every built-in use case times several option variants — through
// `ScenarioEngine::run_all` with a worker pool and a shared evaluation
// cache, against the sequential path (one fresh caller-only engine per
// request, no sharing).  Reports scenarios/sec for both, the speedup, the
// cache hit ratio, and verifies that every certificate is byte-identical
// between the two paths — sharing accelerates the toolchain without
// changing a single analysed bound.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

struct Batch {
    std::vector<UseCaseApp> apps;            ///< owns programs/platforms
    std::vector<core::ScenarioRequest> requests;
};

/// A mixed batch: 4 apps (2 predictable, 2 complex) x 3 option variants.
/// Variants share each app's analysis keys (only scheduling options
/// differ), which is the redundancy real parameter sweeps have — exactly
/// what the evaluation cache exploits.
Batch make_batch() {
    Batch batch;
    batch.apps.push_back(make_camera_pill_app());   // predictable
    batch.apps.push_back(make_space_app());         // predictable
    batch.apps.push_back(make_uav_app("jetson-tx2"));  // complex
    batch.apps.push_back(make_parking_app(false));  // complex (Apalis TK1)

    for (const auto& app : batch.apps) {
        for (const int variant : {0, 1, 2}) {
            core::ScenarioRequest request;
            request.program = &app.program;
            request.platform = &app.platform;
            request.csl_source = app.csl_source;
            request.options.compiler.population = 8;
            request.options.compiler.iterations = 8;
            request.options.profile_runs = 10;
            request.options.scheduler.anneal_iterations = 120;
            if (variant == 1)
                request.options.scheduler.objective =
                    coordination::Scheduler::Objective::kMakespan;
            if (variant == 2) request.options.scheduler.seed = 7;
            request.label = app.name + "/v" + std::to_string(variant);
            batch.requests.push_back(std::move(request));
        }
    }
    return batch;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool print_table() {
    const auto batch = make_batch();
    const auto& requests = batch.requests;

    std::printf("=== E1: engine batch, %zu mixed scenarios ===\n",
                requests.size());

    // Sequential path: one fresh caller-only engine per scenario, one at a
    // time, no sharing.
    const auto t_sequential = std::chrono::steady_clock::now();
    std::vector<core::ToolchainReport> sequential;
    sequential.reserve(requests.size());
    for (const auto& request : requests) {
        core::ScenarioEngine fresh;
        sequential.push_back(fresh.run(request));
    }
    const double sequential_s = seconds_since(t_sequential);

    // Engine path: 4 workers, shared cache.
    core::ScenarioEngine engine({.worker_threads = 4});
    core::BatchStats stats;
    const auto t_engine = std::chrono::steady_clock::now();
    const auto reports = engine.run_all(requests, &stats);
    const double engine_s = seconds_since(t_engine);

    std::size_t identical = 0;
    for (std::size_t i = 0; i < reports.size(); ++i)
        if (reports[i].certificate.to_text() ==
            sequential[i].certificate.to_text())
            ++identical;

    std::printf("sequential:        %7.3f s  (%5.2f scenarios/s)\n",
                sequential_s,
                static_cast<double>(requests.size()) / sequential_s);
    std::printf("engine run_all:    %7.3f s  (%5.2f scenarios/s)\n",
                engine_s, stats.scenarios_per_s);
    std::printf("speedup:           %6.2fx  (%zu threads)\n",
                sequential_s / engine_s, stats.workers);
    std::printf("cache:             %llu hits / %llu misses (%.0f%% hit "
                "ratio, %llu evictions, %zu entries)\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                100.0 * stats.cache.hit_ratio(),
                static_cast<unsigned long long>(stats.cache.evictions),
                stats.cache.entries);
    std::printf("certificates byte-identical to sequential: %zu/%zu %s\n",
                identical, reports.size(),
                identical == reports.size() ? "(OK)" : "(MISMATCH!)");
    std::printf("per-stage telemetry (engine path):\n%s\n",
                stats.stage_telemetry.to_string().c_str());
    return identical == reports.size();
}

}  // namespace

int main() {
    // A certificate mismatch must fail the process: the CI bench-smoke
    // step relies on this table as the shared-vs-fresh-engine
    // byte-identity gate.
    return print_table() ? 0 : 1;
}
