// Application model consumed by the coordination layer [13]: a DAG of tasks
// with per-core-class candidate versions (the multi-version task model of
// Roeder et al. [20][21]).
//
// The versions of a task come from the multi-criteria compiler (predictable
// flow) or from the dynamic profiler (complex flow); the scheduler picks one
// version, one core and implicitly one DVFS point per task.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace teamplay::coordination {

/// One candidate implementation of a task on a class of cores.
struct VersionChoice {
    double time_s = 0.0;      ///< budgeted execution time (bound or HWM)
    double energy_j = 0.0;    ///< dynamic energy per execution
    double leakage = 0.0;     ///< security proxy carried for contract checks
    std::size_t opp_index = 0;  ///< DVFS point this version was costed at
    std::string note;         ///< provenance (pass config label, "profiled")
};

struct Task {
    std::string name;
    std::string entry_fn;              ///< IR function implementing the task
    std::vector<std::string> deps;     ///< predecessor task names
    double period_s = 0.0;             ///< 0 = aperiodic / single-shot
    double deadline_s = 0.0;           ///< 0 = inherit the app deadline
    /// Candidate versions per core class ("" key = any core).
    std::map<std::string, std::vector<VersionChoice>> versions;

    [[nodiscard]] bool runs_on(const std::string& core_class) const {
        return versions.contains(core_class) || versions.contains("");
    }
    [[nodiscard]] const std::vector<VersionChoice>* versions_for(
        const std::string& core_class) const {
        auto it = versions.find(core_class);
        if (it != versions.end()) return &it->second;
        it = versions.find("");
        return it != versions.end() ? &it->second : nullptr;
    }
};

struct TaskGraph {
    std::string app_name;
    std::vector<Task> tasks;

    [[nodiscard]] const Task* find(const std::string& name) const;
    [[nodiscard]] Task* find(const std::string& name);

    /// Structural problems (duplicate names, unknown dependencies, cycles,
    /// tasks without versions); empty = well-formed.
    [[nodiscard]] std::vector<std::string> validate() const;

    /// Topological order of task indices; throws std::runtime_error on an
    /// unknown dependency or a cycle.
    [[nodiscard]] std::vector<std::size_t> topological_order() const;

    /// Successor adjacency (index -> indices of dependents).
    [[nodiscard]] std::vector<std::vector<std::size_t>> successors() const;
};

}  // namespace teamplay::coordination
