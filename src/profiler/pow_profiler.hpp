// Dynamic time/energy profiler (the PowProfiler stand-in of Fig. 2,
// Seewald et al. [18][19]).
//
// On complex architectures, static analysis is unavailable, so the paper's
// second workflow instruments a sequential binary and derives per-task time
// and energy estimates from repeated measured executions.  This module
// reproduces that loop against the simulated board: it runs a task many
// times from staged inputs under varying timing noise, collects the sample
// distributions and produces the estimates the coordination layer
// schedules with (mean, p95, observed max, and a margin-inflated
// "high-water mark" used in place of a true WCET).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace teamplay::profiler {

/// Distribution summary of one measured quantity.
struct Estimate {
    double mean = 0.0;
    double stddev = 0.0;
    double p95 = 0.0;
    double max = 0.0;

    /// Measurement-based bound: observed max inflated by a safety margin
    /// (20% is the engineering convention the coordination layer uses when
    /// no static WCET exists).
    [[nodiscard]] double high_water_mark(double margin = 1.2) const {
        return max * margin;
    }
};

/// Profiling result of one task.
struct TaskProfile {
    std::string function;
    int runs = 0;
    Estimate time_s;
    Estimate energy_j;
    Estimate cycles;
};

/// Prepares machine state (memory image, arguments) for a campaign;
/// returns the argument vector.  `profile` calls it once per campaign and
/// every run starts from the state it staged: runs differ only in their
/// machine seed.
using InputStager =
    std::function<std::vector<ir::Word>(support::Rng&, sim::Machine&)>;

/// Default stager: zeroed memory, zero arguments.
[[nodiscard]] InputStager zero_inputs(int param_count);

class PowProfiler {
public:
    /// `sim` selects the simulator tier of the machine each campaign
    /// builds.
    PowProfiler(const ir::Program& program, const platform::Core& core,
                std::size_t opp_index, std::uint64_t seed = 1,
                sim::SimOptions sim = {});

    /// Measure `function` over `runs` executions from one staged state,
    /// seeded with the next `runs` machine seeds (Machine::run_seeds).
    /// Throws std::invalid_argument when `runs` < 1.
    [[nodiscard]] TaskProfile profile(const std::string& function,
                                      const InputStager& stager, int runs);

private:
    const ir::Program* program_;
    const platform::Core* core_;
    std::size_t opp_index_;
    support::Rng rng_;
    std::uint64_t next_machine_seed_;
    sim::SimOptions sim_;
};

}  // namespace teamplay::profiler
