// Cycle-approximate execution of IR programs on a modelled core.
//
// This module is the hardware substitution (DESIGN.md §2): it plays the role
// of the physical boards in the paper's evaluation.  For predictable cores it
// charges exactly the cost tables the static analysers use, so static bounds
// are sound and validation against "measurement" is meaningful.  For complex
// cores it adds stochastic cache and pipeline behaviour, making dynamic
// profiling (PowProfiler) the only viable estimation route — the property
// that motivates the paper's second workflow.
//
// The machine also produces a per-instruction power trace with a
// Hamming-weight data-dependent component, which is what the side-channel
// leakage metrics of the SecurityAnalyser consume.
//
// Execution tiers (DESIGN.md §9): with SimBackend::kTrace (the default),
// `run` executes a pre-decoded flat trace (sim/trace.hpp) through a
// threaded-dispatch loop, falling back to the interpreter when lowering is
// impossible; the recursive tree-walking interpreter is the reference
// semantics.  Both tiers produce bit-identical RunResults — the
// differential oracle in tests/test_sim_trace.cpp pins this.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "platform/platform.hpp"
#include "sim/backend.hpp"
#include "support/rng.hpp"

namespace teamplay::sim {

struct CompiledTrace;

/// Outcome of one task execution.
struct RunResult {
    double cycles = 0.0;
    double time_s = 0.0;
    double dynamic_energy_j = 0.0;
    double static_energy_j = 0.0;  ///< core leakage over the run duration
    ir::Word ret_value = 0;
    std::int64_t instrs_executed = 0;
    std::array<std::int64_t, isa::kNumInstrClasses> class_counts{};

    /// Per-instruction instantaneous power samples in watts (only filled
    /// when tracing was requested).  Sample i corresponds to the i-th
    /// executed instruction, so traces from runs with identical control flow
    /// align point-by-point.
    std::vector<double> power_trace;

    [[nodiscard]] double energy_j() const {
        return dynamic_energy_j + static_energy_j;
    }
};

/// Interpreter + trace executor for one program on one core at one DVFS
/// operating point.
class Machine {
public:
    /// The program must outlive the machine.  `seed` drives the stochastic
    /// timing of complex cores; predictable cores never consult it.  `sim`
    /// selects the execution tier (sim/backend.hpp).  With the trace
    /// backend and no explicit cache, compiled traces go through
    /// TraceCache::process_wide().
    Machine(const ir::Program& program, const platform::Core& core,
            std::size_t opp_index, std::uint64_t seed = 1,
            SimOptions sim = {});

    /// Write a word into shared memory (input staging).
    void poke(std::size_t address, ir::Word value);
    /// Read a word from shared memory (output retrieval).
    [[nodiscard]] ir::Word peek(std::size_t address) const;
    /// Bulk variants.
    void poke_span(std::size_t address, std::span<const ir::Word> values);
    [[nodiscard]] std::vector<ir::Word> peek_span(std::size_t address,
                                                  std::size_t count) const;
    /// Reset all memory to zero.
    void clear_memory();

    /// Execute `function` with the given arguments.  Throws on undefined
    /// functions, argument-count mismatches (invalid_argument, validated
    /// against the entry signature before any state changes), out-of-range
    /// memory access, dynamic loop trips above the static bound, or
    /// exceeding the instruction budget.
    RunResult run(const std::string& function,
                  std::span<const ir::Word> args, bool record_trace = false);

    /// Execute `function` once per seed, each as if on a fresh machine
    /// built with that seed over the current memory image: result i is
    /// bit-identical to a `run` on such a machine.  The seed feeds only
    /// the stochastic cycles, so on the trace tier a complex core executes
    /// the instruction stream once, in lockstep: every charge draws from
    /// each seed's own RNG into that seed's own cycle count, while energy,
    /// counts, memory and the return value are computed once.  Predictable
    /// cores run once and replicate the result; the interpreter restores
    /// the memory image and runs each seed in turn.  Throws what `run`
    /// throws.  Afterwards memory holds the image one run leaves behind.
    std::vector<RunResult> run_seeds(const std::string& function,
                                     std::span<const ir::Word> args,
                                     std::span<const std::uint64_t> seeds);

    /// Abort threshold for runaway programs (default 500 M instructions).
    void set_instruction_budget(std::int64_t budget) { budget_ = budget; }

    [[nodiscard]] const platform::Core& core() const { return *core_; }
    [[nodiscard]] const platform::OperatingPoint& opp() const {
        return core_->opp(opp_index_);
    }
    [[nodiscard]] SimBackend backend() const { return backend_; }

    /// Resolve the compiled trace for `function` (memo -> shared cache ->
    /// compile) and remember the outcome.  Returns null when the function
    /// cannot be lowered (interpreter fallback) or the backend is kInterp.
    /// Owners that build many machines over the same program resolve once
    /// and `attach_trace` the result to later machines, skipping
    /// per-machine fingerprinting.
    [[nodiscard]] std::shared_ptr<const CompiledTrace> resolve_trace(
        const std::string& function);

    /// Pre-seed the trace memo for `function`.  The trace must come from a
    /// structurally-fingerprint-equal (program, entry) pair on a core with
    /// an equal model fingerprint; null marks "known interpreter fallback".
    void attach_trace(const std::string& function,
                      std::shared_ptr<const CompiledTrace> trace);

private:
    struct Frame {
        std::vector<ir::Word> regs;
    };

    template <bool RecordTrace>
    void exec_node(const ir::Node& node, Frame& frame, RunResult& result,
                   int call_depth);
    template <bool RecordTrace>
    void exec_block(const ir::Node& node, Frame& frame, RunResult& result);
    template <bool RecordTrace>
    void charge(isa::InstrClass cls, ir::Word data_value, RunResult& result);
    template <bool RecordTrace>
    void charge_overhead(double cycles, double energy_pj, RunResult& result);
    /// One seed of a lockstep pass: its noise stream and cycle count.
    struct Lane {
        support::Rng rng;
        double cycles = 0.0;
    };
    /// Threaded-dispatch executor over a pre-decoded trace; sets
    /// `result.ret_value` from the trace's entry return register.
    /// `Predictable` specialises out the stochastic-timing path entirely
    /// (the per-instruction RNG draws exist only on complex cores).
    /// `Lockstep` charges stochastic cycles to every lane, each from its
    /// own RNG, instead of to `result.cycles` from the machine's RNG.
    template <bool RecordTrace, bool Predictable, bool Lockstep>
    void exec_trace(const CompiledTrace& trace, std::span<const ir::Word> args,
                    RunResult& result, std::span<Lane> lanes);
    /// Resolves `function` (memoised) and validates the argument count.
    const ir::Function& enter(const std::string& function,
                              std::span<const ir::Word> args);
    /// Derives time and leakage energy from `result.cycles`.
    void settle(RunResult& result) const;
    [[nodiscard]] double stochastic_cycles(double base, bool memory_access);
    [[nodiscard]] std::int64_t charge_estimate(const std::string& function);

    const ir::Program* program_;
    const platform::Core* core_;
    std::size_t opp_index_;
    double energy_scale_;  ///< V^2 scaling for the selected operating point
    std::vector<ir::Word> memory_;
    support::Rng rng_;
    std::int64_t budget_ = 500'000'000;
    SimBackend backend_;
    std::shared_ptr<TraceCache> trace_cache_;
    /// Per-entry resolution memo; a present-but-null value means "lowering
    /// failed, use the interpreter" so failures resolve only once.
    std::map<std::string, std::shared_ptr<const CompiledTrace>> traces_;
    /// Memoised ir::estimate_charges per entry (power-trace reservation).
    std::map<std::string, std::int64_t> charge_estimates_;

    /// One call-frame record of the trace executor's call stack.
    struct TraceCall {
        std::uint32_t ret_pc;
        std::uint32_t caller_base;
        std::int32_t ret_dst;  ///< caller register receiving the result
        std::int32_t ret_src;  ///< callee return register
    };
    /// Scratch buffers reused across runs so the trace tier performs no
    /// per-run allocations once warm.
    std::vector<ir::Word> trace_arena_;
    std::vector<TraceCall> trace_calls_;

    /// Last-entry fast path for `run` and `run_seeds`: repeated
    /// executions of the same function skip the per-run map lookups.
    /// Invalidated by attach_trace.
    std::string last_entry_;
    const ir::Function* last_fn_ = nullptr;
    std::shared_ptr<const CompiledTrace> last_trace_;
};

}  // namespace teamplay::sim
