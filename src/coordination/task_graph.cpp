#include "coordination/task_graph.hpp"

#include <set>
#include <stdexcept>
#include <string_view>

namespace teamplay::coordination {

namespace {

/// Kahn's algorithm over the dependencies that name a task of `graph`
/// (unknown ones are left out): the order falls short of every task
/// exactly when those dependencies form a cycle.
std::vector<std::size_t> order_by_known_deps(const TaskGraph& graph) {
    const auto succ = graph.successors();
    std::vector<int> indegree(graph.tasks.size(), 0);
    for (const auto& dependents : succ)
        for (const std::size_t next : dependents) ++indegree[next];

    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < graph.tasks.size(); ++i)
        if (indegree[i] == 0) ready.push_back(i);

    std::vector<std::size_t> order;
    order.reserve(graph.tasks.size());
    while (!ready.empty()) {
        const std::size_t current = ready.back();
        ready.pop_back();
        order.push_back(current);
        for (const std::size_t next : succ[current])
            if (--indegree[next] == 0) ready.push_back(next);
    }
    return order;
}

}  // namespace

const Task* TaskGraph::find(const std::string& name) const {
    for (const auto& task : tasks)
        if (task.name == name) return &task;
    return nullptr;
}

Task* TaskGraph::find(const std::string& name) {
    for (auto& task : tasks)
        if (task.name == name) return &task;
    return nullptr;
}

std::vector<std::string> TaskGraph::validate() const {
    std::vector<std::string> errors;
    std::set<std::string> names;
    for (const auto& task : tasks) {
        if (task.name.empty()) errors.emplace_back("task with empty name");
        if (!names.insert(task.name).second)
            errors.push_back("duplicate task '" + task.name + "'");
        if (task.versions.empty())
            errors.push_back("task '" + task.name + "' has no versions");
        for (const auto& dep : task.deps) {
            if (find(dep) == nullptr)
                errors.push_back("task '" + task.name +
                                 "' depends on unknown task '" + dep + "'");
            if (dep == task.name)
                errors.push_back("task '" + task.name +
                                 "' depends on itself");
        }
        for (const auto& [cls, versions] : task.versions) {
            for (const auto& version : versions) {
                if (version.time_s <= 0.0)
                    errors.push_back("task '" + task.name +
                                     "' has a version with non-positive "
                                     "time");
                if (version.energy_j < 0.0)
                    errors.push_back("task '" + task.name +
                                     "' has a version with negative energy");
            }
        }
    }
    // An unknown dependency is reported above; it is not a cycle.
    if (order_by_known_deps(*this).size() != tasks.size())
        errors.emplace_back("dependency cycle detected");
    return errors;
}

std::vector<std::size_t> TaskGraph::topological_order() const {
    std::set<std::string_view> names;
    for (const auto& task : tasks) names.insert(task.name);
    for (const auto& task : tasks)
        for (const auto& dep : task.deps)
            if (!names.contains(dep))
                throw std::runtime_error("unknown dependency: " + dep);
    auto order = order_by_known_deps(*this);
    if (order.size() != tasks.size())
        throw std::runtime_error("task graph has a cycle");
    return order;
}

std::vector<std::vector<std::size_t>> TaskGraph::successors() const {
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        index_of[tasks[i].name] = i;
    std::vector<std::vector<std::size_t>> succ(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i)
        for (const auto& dep : tasks[i].deps) {
            const auto it = index_of.find(dep);
            if (it != index_of.end()) succ[it->second].push_back(i);
        }
    return succ;
}

}  // namespace teamplay::coordination
