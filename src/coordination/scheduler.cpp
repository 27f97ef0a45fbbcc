#include "coordination/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/units.hpp"

namespace teamplay::coordination {

namespace {

/// Idle (sleep-state) power of a core as a fraction of its lowest-OPP
/// leakage: modern embedded cores gate most of the rail when parked.
constexpr double kIdleFraction = 0.1;

double idle_power_w(const platform::Core& core) {
    double lowest = core.opps.front().static_power_w;
    for (const auto& opp : core.opps)
        lowest = std::min(lowest, opp.static_power_w);
    return lowest * kIdleFraction;
}

/// Platform energy of placed `entries` over `horizon` (>= their makespan),
/// summed in one fixed order: board base power, then per core the dynamic
/// energy of its entries in list order, its static energy while busy and
/// its idle leakage at `idle_w(core index)`.  `Entry` is a ScheduleEntry or
/// a Placement; Schedule::platform_energy_j and the annealer both sum
/// here, so the energies the annealer compares are the ones callers read.
template <typename Entry, typename IdlePower>
double platform_energy(const platform::Platform& platform,
                       const std::vector<Entry>& entries, double horizon,
                       const IdlePower& idle_w) {
    double total = platform.base_power_w * horizon;
    for (std::size_t c = 0; c < platform.cores.size(); ++c) {
        const auto& core = platform.cores[c];
        double busy = 0.0;
        double static_busy_j = 0.0;
        for (const auto& entry : entries) {
            if (entry.core != c) continue;
            const double duration = entry.finish_s - entry.start_s;
            busy += duration;
            static_busy_j +=
                core.opp(entry.opp_index).static_power_w * duration;
            total += entry.dynamic_energy_j;
        }
        total += static_busy_j;
        total += idle_w(c) * std::max(0.0, horizon - busy);
    }
    return total;
}

/// A task's (core, version) choice.
struct Assignment {
    std::size_t core = 0;
    std::size_t version = 0;
};

/// A ScheduleEntry without its strings (same field names, so
/// platform_energy sums either).
struct Placement {
    std::size_t core = 0;
    std::size_t version = 0;
    double start_s = 0.0;
    double finish_s = 0.0;
    double dynamic_energy_j = 0.0;
    std::size_t opp_index = 0;
};

/// One pass of the placement routine.  Its vectors keep their size from
/// pass to pass, so refilling them allocates nothing.
struct Placements {
    std::vector<Placement> entries;      ///< slot k: the k-th task by priority
    std::vector<double> finish_of;       ///< per task index (0 = not placed)
    std::vector<double> core_available;  ///< per core, its last finish
    double makespan_s = 0.0;
    bool feasible = true;
};

/// What placement reads of the graph and the platform.  None of it depends
/// on the assignment being tried, so schedule() derives it once per call.
struct Plan {
    std::size_t cores = 0;
    std::vector<std::size_t> priority;  ///< task indices, descending rank
    std::vector<std::vector<std::size_t>> deps;  ///< indices, in deps order
    std::vector<double> min_exec;       ///< best-case time on any core
    std::vector<double> remaining_min;  ///< optimistic remaining path
    /// [task * cores + core]: the version list the core runs the task
    /// from, or null when it cannot run it.
    std::vector<const std::vector<VersionChoice>*> versions;
    /// Per task, every (core, version) pair in core-then-version order.
    std::vector<std::vector<Assignment>> moves;
    std::vector<double> idle_w;  ///< per core, power-managed idle power

    Plan(const TaskGraph& graph, const platform::Platform& platform);
};

Plan::Plan(const TaskGraph& graph, const platform::Platform& platform)
    : cores(platform.cores.size()) {
    const auto order = graph.topological_order();
    const auto succ = graph.successors();
    const std::size_t n = graph.tasks.size();

    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < n; ++i) index_of[graph.tasks[i].name] = i;
    deps.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        for (const auto& dep : graph.tasks[i].deps)
            deps[i].push_back(index_of.at(dep));

    // Mean and best-case execution estimates per task (across every core
    // class and version the task can use).
    std::vector<double> mean_exec(n, 0.0);
    min_exec.assign(n, 0.0);
    versions.assign(n * cores, nullptr);
    moves.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        double best = 0.0;
        for (std::size_t c = 0; c < cores; ++c) {
            const auto* list =
                graph.tasks[i].versions_for(platform.cores[c].core_class);
            versions[i * cores + c] = list;
            if (list == nullptr) continue;
            for (std::size_t v = 0; v < list->size(); ++v) {
                const double time = (*list)[v].time_s;
                acc += time;
                if (moves[i].empty() || time < best) best = time;
                moves[i].push_back({c, v});
            }
        }
        if (moves[i].empty())
            throw std::runtime_error("task '" + graph.tasks[i].name +
                                     "' fits no core of platform " +
                                     platform.name);
        mean_exec[i] = acc / static_cast<double>(moves[i].size());
        min_exec[i] = best;
    }

    // Upward rank (critical-path priority) over mean estimates; and the
    // optimistic remaining path (over best cases) used for the deadline
    // guard of the energy policy.
    std::vector<double> rank(n, 0.0);
    remaining_min.assign(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t i = *it;
        double best_succ = 0.0;
        double best_succ_min = 0.0;
        for (const std::size_t s : succ[i]) {
            best_succ = std::max(best_succ, rank[s]);
            best_succ_min = std::max(best_succ_min, remaining_min[s]);
        }
        rank[i] = mean_exec[i] + best_succ;
        remaining_min[i] = min_exec[i] + best_succ_min;
    }

    // Priority list: descending rank, dependency-consistent because ranks
    // strictly decrease along edges.
    priority = order;
    std::sort(priority.begin(), priority.end(),
              [&rank](std::size_t a, std::size_t b) {
                  return rank[a] > rank[b];
              });

    for (const auto& core : platform.cores)
        idle_w.push_back(idle_power_w(core));
}

/// The placement routine of the greedy pass and of every annealing trial:
/// places each task in priority order, earliest start on the chosen core.
/// With `fixed` null a task picks among all its (core, version) pairs by
/// the objective; otherwise `fixed[task]` is its only candidate, which
/// every selection rule below then picks.
void place(const Plan& plan, const TaskGraph& graph,
           const Scheduler::Options& options, const Assignment* fixed,
           Placements& out) {
    const std::size_t n = graph.tasks.size();
    out.entries.resize(n);
    out.finish_of.assign(n, 0.0);
    out.core_available.assign(plan.cores, 0.0);
    out.makespan_s = 0.0;
    out.feasible = true;

    // Candidates finishing within the deadline guard compete on energy
    // (then finish); the earliest finish (then energy) is the fallback and
    // the makespan objective's choice.  Ties keep the first candidate in
    // core-then-version order.
    const bool by_energy = options.objective == Scheduler::Objective::kEnergy;
    const bool guarded = by_energy && options.deadline_s > 0.0;
    const auto cheaper = [](const Placement& a, const Placement& b) {
        if (a.dynamic_energy_j != b.dynamic_energy_j)
            return a.dynamic_energy_j < b.dynamic_energy_j;
        return a.finish_s < b.finish_s;
    };
    const auto sooner = [](const Placement& a, const Placement& b) {
        if (a.finish_s != b.finish_s) return a.finish_s < b.finish_s;
        return a.dynamic_energy_j < b.dynamic_energy_j;
    };

    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = plan.priority[k];
        double deps_ready = 0.0;
        for (const std::size_t dep : plan.deps[i])
            deps_ready = std::max(deps_ready, out.finish_of[dep]);
        // Latest finish that leaves room for the optimistic remaining
        // critical path after this task.
        const double slack_limit =
            options.deadline_s - (plan.remaining_min[i] - plan.min_exec[i]);

        Placement cheapest;
        Placement soonest;
        bool any_cheap = false;
        bool any = false;
        const std::size_t c_first = fixed != nullptr ? fixed[i].core : 0;
        const std::size_t c_end = fixed != nullptr ? c_first + 1 : plan.cores;
        for (std::size_t c = c_first; c < c_end; ++c) {
            const auto* list = plan.versions[i * plan.cores + c];
            if (list == nullptr) continue;
            const std::size_t v_first = fixed != nullptr ? fixed[i].version : 0;
            const std::size_t v_end =
                fixed != nullptr ? v_first + 1 : list->size();
            for (std::size_t v = v_first; v < v_end; ++v) {
                const auto& version = (*list)[v];
                Placement cand;
                cand.core = c;
                cand.version = v;
                cand.start_s = std::max(out.core_available[c], deps_ready);
                cand.finish_s = cand.start_s + version.time_s;
                cand.dynamic_energy_j = version.energy_j;
                cand.opp_index = version.opp_index;
                if (by_energy && !(guarded && cand.finish_s > slack_limit) &&
                    (!any_cheap || cheaper(cand, cheapest))) {
                    cheapest = cand;
                    any_cheap = true;
                }
                if (!any || sooner(cand, soonest)) {
                    soonest = cand;
                    any = true;
                }
            }
        }
        const Placement& chosen = any_cheap ? cheapest : soonest;
        out.entries[k] = chosen;
        out.core_available[chosen.core] = chosen.finish_s;
        out.finish_of[i] = chosen.finish_s;
        out.makespan_s = std::max(out.makespan_s, chosen.finish_s);
        const double deadline = graph.tasks[i].deadline_s;
        if (deadline > 0.0 && chosen.finish_s > deadline)
            out.feasible = false;
    }
    if (options.deadline_s > 0.0 && out.makespan_s > options.deadline_s)
        out.feasible = false;
}

}  // namespace

const ScheduleEntry* Schedule::entry_for(const std::string& task) const {
    for (const auto& entry : entries)
        if (entry.task == task) return &entry;
    return nullptr;
}

double Schedule::dynamic_energy_j() const {
    double total = 0.0;
    for (const auto& entry : entries) total += entry.dynamic_energy_j;
    return total;
}

double Schedule::platform_energy_j(const platform::Platform& platform,
                                   double horizon_s,
                                   bool power_managed) const {
    return platform_energy(
        platform, entries, std::max(horizon_s, makespan_s),
        [&platform, power_managed](std::size_t c) {
            const auto& core = platform.cores[c];
            return power_managed ? idle_power_w(core)
                                 : core.opps.back().static_power_w;
        });
}

std::string Schedule::to_string() const {
    std::ostringstream os;
    os << "schedule makespan=" << support::format_time(makespan_s)
       << " feasible=" << (feasible ? "yes" : "no") << "\n";
    for (const auto& entry : entries) {
        os << "  " << entry.task << ": core=" << entry.core << " version="
           << entry.version << " opp=" << entry.opp_index << " ["
           << support::format_time(entry.start_s) << ", "
           << support::format_time(entry.finish_s) << "] energy="
           << support::format_energy(entry.dynamic_energy_j) << "\n";
    }
    return os.str();
}

std::string Schedule::gantt(const platform::Platform& platform,
                            int width) const {
    std::ostringstream os;
    if (makespan_s <= 0.0 || width < 8) return "(empty schedule)\n";
    for (std::size_t c = 0; c < platform.cores.size(); ++c) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const auto& entry : entries) {
            if (entry.core != c) continue;
            auto lo = static_cast<std::size_t>(entry.start_s / makespan_s *
                                               width);
            auto hi = static_cast<std::size_t>(entry.finish_s / makespan_s *
                                               width);
            lo = std::min(lo, static_cast<std::size_t>(width - 1));
            hi = std::min(std::max(hi, lo + 1),
                          static_cast<std::size_t>(width));
            const char mark =
                entry.task.empty() ? '#' : entry.task.front();
            for (std::size_t x = lo; x < hi; ++x) row[x] = mark;
        }
        os << "  " << platform.cores[c].name;
        os << std::string(
            platform.cores[c].name.size() < 10
                ? 10 - platform.cores[c].name.size()
                : 1,
            ' ');
        os << "|" << row << "|\n";
    }
    os << "  " << std::string(10, ' ') << "0"
       << std::string(static_cast<std::size_t>(width) - 1, ' ')
       << support::format_time(makespan_s) << "\n";
    return os.str();
}

Schedule Scheduler::schedule(const TaskGraph& graph,
                             const Options& options) const {
    const auto errors = graph.validate();
    if (!errors.empty())
        throw std::runtime_error("invalid task graph: " + errors.front());

    const Plan plan(graph, *platform_);
    Placements best;
    place(plan, graph, options, nullptr, best);

    // An empty graph has nothing to perturb: its greedy schedule is final.
    if (options.anneal && options.objective == Objective::kEnergy &&
        !graph.tasks.empty()) {
        // Simulated-annealing refinement over (core, version) assignments,
        // starting from the greedy one.  A trial perturbs one task of the
        // accepted assignment in place and restores it unless accepted.
        const double horizon = std::max(options.deadline_s, best.makespan_s);
        const auto energy_of = [&](const Placements& placed) {
            return platform_energy(
                *platform_, placed.entries,
                std::max(horizon, placed.makespan_s),
                [&plan](std::size_t c) { return plan.idle_w[c]; });
        };
        support::Rng rng(options.seed);
        const std::size_t n = graph.tasks.size();
        std::vector<Assignment> accepted(n);
        for (std::size_t k = 0; k < n; ++k)
            accepted[plan.priority[k]] = {best.entries[k].core,
                                          best.entries[k].version};
        double best_energy = energy_of(best);
        double accepted_energy = best_energy;
        Placements trial = best;

        for (int iter = 0; iter < options.anneal_iterations; ++iter) {
            const double temperature =
                1.0 - static_cast<double>(iter) /
                          static_cast<double>(options.anneal_iterations);
            // Perturb one task: random core it fits, random version.
            const std::size_t i = rng.below(n);
            const auto& moves = plan.moves[i];
            const Assignment kept = accepted[i];
            accepted[i] = moves[rng.below(moves.size())];
            place(plan, graph, options, accepted.data(), trial);
            bool accept = false;
            if (trial.feasible) {
                const double energy = energy_of(trial);
                accept = energy < accepted_energy ||
                         rng.chance(0.1 * temperature);
                if (accept) accepted_energy = energy;
                if (energy < best_energy) {
                    std::swap(best, trial);
                    best_energy = energy;
                }
            }
            if (!accept) accepted[i] = kept;
        }
    }

    Schedule schedule;
    schedule.entries.reserve(best.entries.size());
    for (std::size_t k = 0; k < best.entries.size(); ++k) {
        const auto& placed = best.entries[k];
        const Task& task = graph.tasks[plan.priority[k]];
        const auto& core_class = platform_->cores[placed.core].core_class;
        schedule.entries.push_back(
            {.task = task.name,
             .core = placed.core,
             .version = placed.version,
             .core_class = task.versions.contains(core_class) ? core_class
                                                              : "",
             .start_s = placed.start_s,
             .finish_s = placed.finish_s,
             .dynamic_energy_j = placed.dynamic_energy_j,
             .opp_index = placed.opp_index});
    }
    schedule.makespan_s = best.makespan_s;
    schedule.feasible = best.feasible;
    return schedule;
}

RtaResult response_time_analysis(const std::vector<PeriodicTask>& tasks) {
    RtaResult result;
    result.response_times.assign(tasks.size(), 0.0);
    result.schedulable = true;

    // Rate-monotonic priority: shorter period = higher priority.
    std::vector<std::size_t> by_priority(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) by_priority[i] = i;
    std::sort(by_priority.begin(), by_priority.end(),
              [&tasks](std::size_t a, std::size_t b) {
                  return tasks[a].period_s < tasks[b].period_s;
              });

    for (std::size_t p = 0; p < by_priority.size(); ++p) {
        const std::size_t i = by_priority[p];
        const double deadline = tasks[i].deadline_s > 0.0
                                    ? tasks[i].deadline_s
                                    : tasks[i].period_s;
        double response = tasks[i].wcet_s;
        for (int iter = 0; iter < 100; ++iter) {
            double interference = 0.0;
            for (std::size_t q = 0; q < p; ++q) {
                const std::size_t j = by_priority[q];
                interference += std::ceil(response / tasks[j].period_s) *
                                tasks[j].wcet_s;
            }
            const double next = tasks[i].wcet_s + interference;
            if (std::abs(next - response) < 1e-12) break;
            response = next;
            if (response > deadline) break;
        }
        result.response_times[i] = response;
        if (response > deadline) result.schedulable = false;
    }
    return result;
}

}  // namespace teamplay::coordination
