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
    const double horizon = std::max(horizon_s, makespan_s);
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
        const double idle_w =
            power_managed ? idle_power_w(core)
                          : core.opps.back().static_power_w;
        total += idle_w * std::max(0.0, horizon - busy);
    }
    return total;
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

Schedule Scheduler::build(const TaskGraph& graph,
                          const std::vector<Assignment>& fixed,
                          const Options& options) const {
    const auto order = graph.topological_order();
    const auto succ = graph.successors();
    const std::size_t n = graph.tasks.size();

    // Mean and best-case execution estimates per task (across every core
    // class and version the task can use).
    std::vector<double> mean_exec(n, 0.0);
    std::vector<double> min_exec(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        int count = 0;
        double best = 0.0;
        bool first = true;
        for (const auto& core : platform_->cores) {
            const auto* versions =
                graph.tasks[i].versions_for(core.core_class);
            if (versions == nullptr) continue;
            for (const auto& version : *versions) {
                acc += version.time_s;
                ++count;
                if (first || version.time_s < best) {
                    best = version.time_s;
                    first = false;
                }
            }
        }
        if (count == 0)
            throw std::runtime_error("task '" + graph.tasks[i].name +
                                     "' fits no core of platform " +
                                     platform_->name);
        mean_exec[i] = acc / count;
        min_exec[i] = best;
    }

    // Upward rank (critical-path priority) over mean estimates; and the
    // optimistic remaining path (over best cases) used for the deadline
    // guard of the energy policy.
    std::vector<double> rank(n, 0.0);
    std::vector<double> remaining_min(n, 0.0);
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
    std::vector<std::size_t> priority(order);
    std::sort(priority.begin(), priority.end(),
              [&rank](std::size_t a, std::size_t b) {
                  return rank[a] > rank[b];
              });

    std::vector<double> core_available(platform_->cores.size(), 0.0);
    std::map<std::string, double> finish_of;
    Schedule schedule;
    schedule.feasible = true;

    for (const std::size_t i : priority) {
        const Task& task = graph.tasks[i];
        double deps_ready = 0.0;
        for (const auto& dep : task.deps)
            deps_ready = std::max(deps_ready, finish_of[dep]);

        struct Candidate {
            std::size_t core = 0;
            std::size_t version = 0;
            std::string core_class;
            double start = 0.0;
            double finish = 0.0;
            double energy = 0.0;
            std::size_t opp = 0;
        };
        std::vector<Candidate> candidates;
        for (std::size_t c = 0; c < platform_->cores.size(); ++c) {
            const auto& core = platform_->cores[c];
            const auto* versions = task.versions_for(core.core_class);
            if (versions == nullptr) continue;
            if (!fixed.empty() && fixed[i].core != c) continue;
            for (std::size_t v = 0; v < versions->size(); ++v) {
                if (!fixed.empty() && fixed[i].version != v) continue;
                const auto& version = (*versions)[v];
                Candidate cand;
                cand.core = c;
                cand.version = v;
                cand.core_class = task.versions.contains(core.core_class)
                                      ? core.core_class
                                      : "";
                cand.start = std::max(core_available[c], deps_ready);
                cand.finish = cand.start + version.time_s;
                cand.energy = version.energy_j;
                cand.opp = version.opp_index;
                candidates.push_back(cand);
            }
        }
        if (candidates.empty())
            throw std::runtime_error("no feasible placement for task '" +
                                     task.name + "'");

        const auto by_finish = [](const Candidate& a, const Candidate& b) {
            if (a.finish != b.finish) return a.finish < b.finish;
            return a.energy < b.energy;
        };
        const Candidate* chosen = nullptr;
        if (options.objective == Objective::kMakespan ||
            options.deadline_s <= 0.0) {
            if (options.objective == Objective::kEnergy &&
                options.deadline_s <= 0.0) {
                // Unconstrained energy minimisation.
                chosen = &*std::min_element(
                    candidates.begin(), candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                        if (a.energy != b.energy) return a.energy < b.energy;
                        return a.finish < b.finish;
                    });
            } else {
                chosen = &*std::min_element(candidates.begin(),
                                            candidates.end(), by_finish);
            }
        } else {
            // Energy policy with a deadline: the cheapest candidate whose
            // finish leaves room for the optimistic remaining critical path.
            const double slack_limit =
                options.deadline_s -
                (remaining_min[i] - min_exec[i]);
            const Candidate* best_energy = nullptr;
            for (const auto& cand : candidates) {
                if (cand.finish > slack_limit) continue;
                if (best_energy == nullptr ||
                    cand.energy < best_energy->energy ||
                    (cand.energy == best_energy->energy &&
                     cand.finish < best_energy->finish))
                    best_energy = &cand;
            }
            chosen = best_energy != nullptr
                         ? best_energy
                         : &*std::min_element(candidates.begin(),
                                              candidates.end(), by_finish);
        }

        ScheduleEntry entry;
        entry.task = task.name;
        entry.core = chosen->core;
        entry.version = chosen->version;
        entry.core_class = chosen->core_class;
        entry.start_s = chosen->start;
        entry.finish_s = chosen->finish;
        entry.dynamic_energy_j = chosen->energy;
        entry.opp_index = chosen->opp;
        schedule.entries.push_back(entry);

        core_available[chosen->core] = chosen->finish;
        finish_of[task.name] = chosen->finish;
        schedule.makespan_s = std::max(schedule.makespan_s, chosen->finish);

        if (task.deadline_s > 0.0 && chosen->finish > task.deadline_s)
            schedule.feasible = false;
    }
    if (options.deadline_s > 0.0 &&
        schedule.makespan_s > options.deadline_s)
        schedule.feasible = false;
    return schedule;
}

Schedule Scheduler::schedule(const TaskGraph& graph,
                             const Options& options) const {
    const auto errors = graph.validate();
    if (!errors.empty())
        throw std::runtime_error("invalid task graph: " + errors.front());

    Schedule best = build(graph, {}, options);
    // An empty graph has nothing to perturb: its greedy schedule is final.
    if (!options.anneal || options.objective != Objective::kEnergy ||
        graph.tasks.empty())
        return best;

    // Simulated-annealing refinement over (core, version) assignments.
    const double horizon = std::max(options.deadline_s, best.makespan_s);
    support::Rng rng(options.seed);
    const std::size_t n = graph.tasks.size();

    // Current assignment extracted from the greedy schedule.
    std::vector<Assignment> current(n);
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < n; ++i) index_of[graph.tasks[i].name] = i;
    for (const auto& entry : best.entries) {
        auto& slot = current[index_of[entry.task]];
        slot.core = entry.core;
        slot.version = entry.version;
        slot.core_class = entry.core_class;
    }

    double best_energy = best.platform_energy_j(*platform_, horizon);
    std::vector<Assignment> accepted = current;
    double accepted_energy = best_energy;

    for (int iter = 0; iter < options.anneal_iterations; ++iter) {
        const double temperature =
            1.0 - static_cast<double>(iter) /
                      static_cast<double>(options.anneal_iterations);
        // Perturb one task: random core it fits, random version.
        std::vector<Assignment> trial = accepted;
        const std::size_t i = rng.below(n);
        std::vector<std::pair<std::size_t, std::size_t>> moves;
        for (std::size_t c = 0; c < platform_->cores.size(); ++c) {
            const auto* versions = graph.tasks[i].versions_for(
                platform_->cores[c].core_class);
            if (versions == nullptr) continue;
            for (std::size_t v = 0; v < versions->size(); ++v)
                moves.emplace_back(c, v);
        }
        if (moves.empty()) continue;
        const auto [core, version] = moves[rng.below(moves.size())];
        trial[i].core = core;
        trial[i].version = version;

        Schedule candidate;
        try {
            candidate = build(graph, trial, options);
        } catch (const std::runtime_error&) {
            continue;
        }
        if (!candidate.feasible) continue;
        const double energy = candidate.platform_energy_j(*platform_, horizon);
        const bool accept =
            energy < accepted_energy ||
            rng.chance(0.1 * temperature);
        if (accept) {
            accepted = trial;
            accepted_energy = energy;
        }
        if (energy < best_energy && candidate.feasible) {
            best = candidate;
            best_energy = energy;
        }
    }
    return best;
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
