#include "core/workflow.hpp"

#include <sstream>

namespace teamplay::core {

const compiler::TaskVersion* ToolchainReport::chosen_version(
    const std::string& task) const {
    const auto* entry = schedule.entry_for(task);
    if (entry == nullptr) return nullptr;
    for (const auto& front : fronts) {
        if (front.task != task || front.core_class != entry->core_class)
            continue;
        if (entry->version < front.versions.size())
            return &front.versions[entry->version];
    }
    return nullptr;
}

std::string ToolchainReport::summary() const {
    std::ostringstream os;
    os << "== TeamPlay toolchain report ==\n"
       << "application: " << spec.name << " on " << platform_name << "\n"
       << "tasks:       " << graph.tasks.size() << "\n"
       << schedule.to_string();
    for (const auto& entry : schedule.entries) {
        const auto* version = chosen_version(entry.task);
        if (version != nullptr)
            os << "  " << entry.task << " uses config "
               << version->config.label() << "\n";
    }
    for (const auto& [core, result] : rta) {
        os << "RM schedulability on core " << core << ": "
           << (result.schedulable ? "pass" : "FAIL") << "\n";
    }
    os << certificate.to_text();
    return os.str();
}

}  // namespace teamplay::core
