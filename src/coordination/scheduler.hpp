// Energy/time/security-aware scheduling and mapping on heterogeneous
// multi-cores (the coordination layer of Figs. 1-2; Roeder et al. [13][20]).
//
// Two objectives are supported:
//   * kMakespan — classic HEFT-style list scheduling (the baseline the
//     ablation bench A2 compares against): always pick the (core, version)
//     pair finishing earliest.
//   * kEnergy — the TeamPlay policy: among candidates that keep the
//     remaining critical path within the deadline, pick the lowest-energy
//     (core, version, DVFS) choice; fall back to earliest-finish when the
//     deadline would otherwise be at risk.  An optional simulated-annealing
//     refinement then perturbs assignments while feasibility holds.
//
// Platform energy accounting separates dynamic energy (the version's own
// cost), per-core static energy while busy, idle leakage, and the board's
// base power over the schedule horizon — the split that makes "race to idle
// vs sweet spot" a real trade-off, as the paper's energy challenge (Sec.
// III-C) describes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coordination/task_graph.hpp"
#include "platform/platform.hpp"

namespace teamplay::coordination {

struct ScheduleEntry {
    std::string task;
    std::size_t core = 0;
    std::size_t version = 0;   ///< index into the chosen class version list
    std::string core_class;    ///< class key the version list came from
    double start_s = 0.0;
    double finish_s = 0.0;
    double dynamic_energy_j = 0.0;
    std::size_t opp_index = 0;
};

struct Schedule {
    std::vector<ScheduleEntry> entries;
    double makespan_s = 0.0;
    bool feasible = false;  ///< all deadlines met at schedule-build time

    [[nodiscard]] const ScheduleEntry* entry_for(
        const std::string& task) const;

    /// Total energy over `horizon_s` (>= makespan): dynamic + per-core
    /// static while busy + idle leakage + board base power.
    ///
    /// `power_managed` selects the idle model: true = TeamPlay-generated
    /// glue parks idle cores in a sleep state (a fraction of the lowest-OPP
    /// leakage); false = the traditional runtime busy-waits at the core's
    /// maximum operating point — the distinction behind the space use case's
    /// energy result.
    [[nodiscard]] double platform_energy_j(
        const platform::Platform& platform, double horizon_s,
        bool power_managed = true) const;

    /// Dynamic-only energy (what the version choices control directly).
    [[nodiscard]] double dynamic_energy_j() const;

    /// Human-readable table.
    [[nodiscard]] std::string to_string() const;

    /// ASCII Gantt chart, one row per core of the platform, `width`
    /// character columns across the makespan.
    [[nodiscard]] std::string gantt(const platform::Platform& platform,
                                    int width = 64) const;
};

class Scheduler {
public:
    enum class Objective : std::uint8_t { kMakespan, kEnergy };

    struct Options {
        Objective objective = Objective::kEnergy;
        double deadline_s = 0.0;  ///< end-to-end deadline (0 = unconstrained)
        bool anneal = true;       ///< simulated-annealing refinement
        int anneal_iterations = 400;
        std::uint64_t seed = 1;
    };

    explicit Scheduler(const platform::Platform& platform)
        : platform_(&platform) {}

    /// Build a static schedule; throws std::runtime_error when the graph is
    /// malformed or a task fits no core.
    [[nodiscard]] Schedule schedule(const TaskGraph& graph,
                                    const Options& options) const;

private:
    const platform::Platform* platform_;
};

/// Response-time analysis for a periodic task set on one core under
/// rate-monotonic priorities (used by the camera-pill flow, where the
/// coordination layer validates schedulability rather than building a static
/// DAG schedule).
struct PeriodicTask {
    std::string name;
    double wcet_s = 0.0;
    double period_s = 0.0;
    double deadline_s = 0.0;  ///< <= period
};

struct RtaResult {
    bool schedulable = false;
    std::vector<double> response_times;  ///< per task, same order as input
};

[[nodiscard]] RtaResult response_time_analysis(
    const std::vector<PeriodicTask>& tasks);

}  // namespace teamplay::coordination
