// The three workloads and the metrics they report.
//
//   cold_sweep   closed batch of every app x board x compiler seed x
//                scheduler objective into a fresh engine (no store)
//   service_mix  open-loop Poisson stream, mostly warm configurations with
//                a cold minority, mixed priority classes, no deadlines
//   remote_warm  closed loop (two in flight) over loopback TCP against a
//                ShardServer whose engine re-reads a pre-filled store
//
// Every workload runs in its own process (run.py starts one per run), so
// peak RSS, set-up time and process-wide state belong to that workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden_path;  ///< golden/<workload>.txt
    std::string work_dir;     ///< scratch space inside the checkout
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/// End-to-end metric names, in print order (trace 0).
[[nodiscard]] const std::vector<Metric>& end_to_end_metrics();
/// Per-layer metric names, in print order (trace 1).
[[nodiscard]] const std::vector<Metric>& per_layer_metrics();

/// Run one workload; throws on a setup error or a refused percentile.
[[nodiscard]] RunResult run_workload(const RunArgs& args);

/// The single JSON result line.
[[nodiscard]] std::string to_json(const RunResult& result);

}  // namespace perfbench
