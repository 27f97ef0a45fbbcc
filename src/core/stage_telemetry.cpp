#include "core/stage_telemetry.hpp"

#include <algorithm>
#include <cstdio>

namespace teamplay::core {

void StageTelemetry::record(std::string_view stage, double seconds) {
    merge(stage, PerStage{1, seconds, seconds});
}

void StageTelemetry::merge(std::span<const StageLap> laps) {
    for (const auto& lap : laps) record(lap.stage, lap.seconds);
}

void StageTelemetry::merge(const StageTelemetry& other) {
    for (const auto& [name, stage] : other.stages_) merge(name, stage);
}

void StageTelemetry::merge(std::string_view stage,
                           const PerStage& aggregate) {
    const auto it = stages_.find(stage);
    auto& entry =
        it != stages_.end()
            ? it->second
            : stages_.emplace(std::string(stage), PerStage{}).first->second;
    entry.count += aggregate.count;
    entry.total_s += aggregate.total_s;
    entry.max_s = std::max(entry.max_s, aggregate.max_s);
}

std::string StageTelemetry::to_string() const {
    if (stages_.empty()) return {};
    std::string out;
    char line[128];
    std::snprintf(line, sizeof line, "%-10s %8s %10s %10s %10s\n", "stage",
                  "count", "total_s", "mean_ms", "max_ms");
    out += line;
    for (const auto& [name, stage] : stages_) {
        std::snprintf(line, sizeof line, "%-10s %8llu %10.4f %10.3f %10.3f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(stage.count),
                      stage.total_s, 1e3 * stage.mean_s(), 1e3 * stage.max_s);
        out += line;
    }
    return out;
}

}  // namespace teamplay::core
