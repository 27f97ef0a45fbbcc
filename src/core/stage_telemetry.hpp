// Per-stage latency attribution for the scenario pipeline.
//
// The engine runs every pipeline stage inside a monotonic lap timer and
// records one StageLap per (scenario, stage) into the scenario's report.
// Laps are aggregated into a StageTelemetry — per-stage invocation count,
// total and maximum wall time — so a regression in one pipeline stage is
// visible in the batch trajectory instead of being smeared into a single
// wall number (X-Lap-style cross-layer attribution).
//
// Determinism: aggregation is keyed by stage name in a sorted map and built
// from commutative reductions (sum, max), so a merged telemetry is
// independent of scenario completion order — streaming and batch runs over
// the same laps produce the same table shape and counts (times naturally
// vary run to run).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace teamplay::core {

/// Wall time of one stage execution within one scenario.
struct StageLap {
    std::string stage;
    double seconds = 0.0;
};

class StageTelemetry {
public:
    struct PerStage {
        std::uint64_t count = 0;
        double total_s = 0.0;
        double max_s = 0.0;

        [[nodiscard]] double mean_s() const {
            return count > 0 ? total_s / static_cast<double>(count) : 0.0;
        }
    };

    /// Fold one lap in, as a per-stage summary of count 1.
    void record(std::string_view stage, double seconds);
    void merge(std::span<const StageLap> laps);
    void merge(const StageTelemetry& other);
    /// Fold one pre-aggregated per-stage summary in (used by cross-shard
    /// aggregation and the wire codec's decoder).
    void merge(std::string_view stage, const PerStage& aggregate);

    [[nodiscard]] bool empty() const { return stages_.empty(); }
    [[nodiscard]] const std::map<std::string, PerStage, std::less<>>& stages()
        const {
        return stages_;
    }

    /// Aligned per-stage table (count, total, mean, max), one line per
    /// stage in name order; "" when no laps were recorded.
    [[nodiscard]] std::string to_string() const;

private:
    std::map<std::string, PerStage, std::less<>> stages_;
};

}  // namespace teamplay::core
