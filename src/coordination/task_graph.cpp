#include "coordination/task_graph.hpp"

#include <set>
#include <stdexcept>

namespace teamplay::coordination {

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
    try {
        (void)topological_order();
    } catch (const std::runtime_error&) {
        errors.emplace_back("dependency cycle detected");
    }
    return errors;
}

std::vector<std::size_t> TaskGraph::topological_order() const {
    std::vector<int> indegree(tasks.size(), 0);
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        index_of[tasks[i].name] = i;
    for (const auto& task : tasks) {
        for (const auto& dep : task.deps) {
            const auto it = index_of.find(dep);
            if (it == index_of.end())
                throw std::runtime_error("unknown dependency: " + dep);
        }
    }
    for (std::size_t i = 0; i < tasks.size(); ++i)
        indegree[i] = static_cast<int>(tasks[i].deps.size());

    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        if (indegree[i] == 0) ready.push_back(i);

    const auto succ = successors();
    std::vector<std::size_t> order;
    order.reserve(tasks.size());
    while (!ready.empty()) {
        const std::size_t current = ready.back();
        ready.pop_back();
        order.push_back(current);
        for (const std::size_t next : succ[current])
            if (--indegree[next] == 0) ready.push_back(next);
    }
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
