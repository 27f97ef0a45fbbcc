#include "profiler/pow_profiler.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "support/stats.hpp"

namespace teamplay::profiler {

namespace {

Estimate summarise(const std::vector<double>& samples) {
    Estimate estimate;
    estimate.mean = support::mean(samples);
    estimate.stddev = support::stddev(samples);
    estimate.p95 = support::percentile(samples, 95.0);
    estimate.max = support::maximum(samples);
    return estimate;
}

}  // namespace

InputStager zero_inputs(int param_count) {
    return [param_count](support::Rng&, sim::Machine& machine) {
        machine.clear_memory();
        return std::vector<ir::Word>(static_cast<std::size_t>(param_count),
                                     0);
    };
}

PowProfiler::PowProfiler(const ir::Program& program,
                         const platform::Core& core, std::size_t opp_index,
                         std::uint64_t seed, sim::SimOptions sim)
    : program_(&program), core_(&core), opp_index_(opp_index), rng_(seed),
      next_machine_seed_(seed * 7919 + 17), sim_(std::move(sim)) {}

TaskProfile PowProfiler::profile(const std::string& function,
                                 const InputStager& stager, int runs) {
    // `runs` can arrive from a remote peer (WorkflowOptions::profile_runs);
    // fail here, not in the scheduler's time check or vector::reserve.
    if (runs < 1)
        throw std::invalid_argument(
            "PowProfiler::profile: runs must be >= 1, got " +
            std::to_string(runs));
    TaskProfile result;
    result.function = function;
    result.runs = runs;

    // Each run models the board settling between measurements: the same
    // staged state on a machine with the next seed, so complex-core noise
    // varies.  One machine stages that state once and runs every seed.
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(runs));
    std::iota(seeds.begin(), seeds.end(), next_machine_seed_);
    next_machine_seed_ += seeds.size();
    sim::Machine machine(*program_, *core_, opp_index_, seeds.front(), sim_);
    const auto args = stager(rng_, machine);

    std::vector<double> times;
    std::vector<double> energies;
    std::vector<double> cycle_samples;
    times.reserve(static_cast<std::size_t>(runs));
    for (const auto& run : machine.run_seeds(function, args, seeds)) {
        times.push_back(run.time_s);
        energies.push_back(run.energy_j());
        cycle_samples.push_back(run.cycles);
    }
    result.time_s = summarise(times);
    result.energy_j = summarise(energies);
    result.cycles = summarise(cycle_samples);
    return result;
}

}  // namespace teamplay::profiler
