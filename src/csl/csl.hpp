// Contract Specification Language (CSL) front-end [1].
//
// CSL is how TeamPlay turns ETS properties into first-class citizens at the
// source level: the developer annotates the application's task structure
// with periods, deadlines, time/energy/security budgets and dependencies.
// The layer extracts the points of interest (POIs) and the task graph that
// the compiler, coordination layer and contract system consume.
//
// Concrete syntax (line comments start with '#'):
//
//   app camera_pill on camera-pill deadline 500ms {
//     task capture {
//       entry pill_capture;
//       period 500ms;
//       deadline 120ms;
//       budget time 8ms;
//       budget energy 2mJ;
//       budget leakage 0;
//       security ladder;        # none | balance | ladder | auto
//       core_class mcu;
//       after boot;             # explicit dependencies
//     }
//     flow capture -> compress -> encrypt -> transmit;
//   }
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "coordination/task_graph.hpp"

namespace teamplay::csl {

/// Parse error with source line information.
class CslError : public std::runtime_error {
public:
    CslError(const std::string& message, int line)
        : std::runtime_error("CSL:" + std::to_string(line) + ": " + message),
          line_(line) {}
    [[nodiscard]] int line() const { return line_; }

private:
    int line_;
};

struct TaskSpec {
    std::string name;
    std::string entry;
    double period_s = 0.0;
    double deadline_s = 0.0;
    double time_budget_s = -1.0;    ///< negative = no contract
    double energy_budget_j = -1.0;
    double leakage_budget = -1.0;
    std::string security_hint = "auto";  ///< none|balance|ladder|auto
    std::string core_class;              ///< "" = any core
    std::vector<std::string> deps;
};

struct AppSpec {
    std::string name;
    std::string platform;
    double deadline_s = 0.0;
    std::vector<TaskSpec> tasks;

    [[nodiscard]] const TaskSpec* find(const std::string& task_name) const;

    /// Task-graph skeleton (names, deps, periods, deadlines); versions are
    /// filled in later by the compiler or profiler.
    [[nodiscard]] coordination::TaskGraph skeleton() const;
};

/// Parse a CSL document; throws CslError on malformed input.
[[nodiscard]] AppSpec parse(std::string_view source);

/// First structural defect of `app`'s task list, empty when there is none:
/// a repeated name (`duplicate task '<t>'`) or a dependency on a task the
/// app does not declare (`task '<t>' depends on unknown task '<d>'`).
/// `parse` reports it with a line number; the toolchain's parse stage
/// applies it to specs that arrive already parsed or off the wire.
[[nodiscard]] std::string task_list_error(const AppSpec& app);

}  // namespace teamplay::csl
