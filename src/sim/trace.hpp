// Binary-translation-lite execution tier: pre-decoded simulator traces.
//
// The TraceCompiler lowers one entry function and everything it calls into
// a single flat instruction stream (DESIGN.md §9).  All per-node decode
// work the tree-walking interpreter repeats on every visit is done once,
// at compile time:
//
//   * operands are resolved to frame-relative register indices and
//     immediates are folded into the instruction word;
//   * the isa::InstrClass and the base cycle / dynamic-energy cost of
//     every instruction are looked up from the core's cost tables and
//     stored next to the operation;
//   * structured control flow (If / Loop / Call regions) becomes explicit
//     jump targets: an If is a conditional branch, a Loop is an
//     enter/iterate/back-edge triple carrying the static trip bound, and a
//     Call jumps into the callee's segment of the same stream.
//
// The stream is executed by Machine's threaded-dispatch loop (computed
// goto, a GCC/Clang extension) — see machine.cpp.
//
// Identity guarantee: a compiled trace charges *exactly* the sequence of
// (instruction class, data value) and overhead events the interpreter
// charges, with the same floating-point expression shapes and the same
// RNG consumption order, so cycles, energies, power-trace samples, taint
// inputs and certificates are bit-identical between the two tiers.  Only
// OPP-independent quantities are baked into the stream (base cycles and
// base pJ at nominal voltage); the DVFS energy scale and frequency stay
// runtime multipliers, so one trace serves every operating point.
//
// Caching: a trace is a pure function of (reachable program structure,
// core cost model).  TraceCache keys on (ir::structural_fingerprint,
// model fingerprint) — the same canonical program key the engine's
// EvaluationCache uses — so hot kernels shared across programs, shards
// and millions of submissions pay decode once.  The cache is a small
// bounded LRU with EvaluationCache-style Stats.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "isa/target_model.hpp"

namespace teamplay::sim {

/// Pre-decoded operations.  Compute ops mirror ir::Opcode one-to-one (the
/// dispatch loop gives each its own handler); control ops replace the
/// region tree with explicit jumps.
enum class TOp : std::uint8_t {
    kNop,
    kMovImm,
    kMov,
    kNot,
    kNeg,
    kAbs,
    kPopcnt,
    kLoad,
    kStore,
    kSelect,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kRem,
    kAnd,
    kOr,
    kXor,
    kShl,
    kShr,
    kCmpEq,
    kCmpNe,
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kMin,
    kMax,
    kBranch,     ///< If head: charge branch overhead, jump to `target` when
                 ///< the condition register (c) is zero
    kJump,       ///< unconditional jump to `target` (end of a then-branch)
    kLoopEnter,  ///< resolve the trip count, validate the static bound,
                 ///< init the loop's scratch registers (dst = index slot,
                 ///< c = trip slot); jump to `target` (exit) on zero trips
    kLoopIter,   ///< per-iteration: charge loop overhead, publish the index
    kLoopBack,   ///< back edge: ++scratch index, jump to `target` (the
                 ///< kLoopIter) while below the scratch trip count
    kCall,       ///< charge call overhead, push a frame, jump to `target`
    kRet,        ///< pop a frame / halt when the entry frame returns
};

inline constexpr std::size_t kNumTOps = static_cast<std::size_t>(TOp::kRet) + 1;

/// One pre-decoded instruction.  Unused fields hold -1/0; `base_cycles` and
/// `base_energy_pj` are the cost-table lookups for compute ops and the
/// structural overheads (branch/loop-iteration/call) for control ops.
struct TraceInstr {
    TOp op = TOp::kNop;
    isa::InstrClass cls = isa::InstrClass::kNop;
    std::int32_t dst = -1;  ///< destination register / loop index register
    std::int32_t a = -1;    ///< source a / loop trip register / callee regs
    std::int32_t b = -1;    ///< source b / callee return register
    std::int32_t c = -1;    ///< select / branch condition register
    ir::Word imm = 0;       ///< immediate / static trip / stride / arg count
    std::uint32_t target = 0;  ///< jump target / callee entry pc
    std::uint32_t aux = 0;     ///< arg-pool offset (kCall)
    std::int64_t bound = 0;    ///< static loop bound (kLoopEnter)
    double base_cycles = 0.0;
    double base_energy_pj = 0.0;
};

/// A lowered (entry function, core model) pair: the entry's segment first,
/// every transitively called function's segment after it, call targets
/// resolved to stream offsets.  Immutable once built; shared freely across
/// machines and threads.
struct CompiledTrace {
    std::vector<TraceInstr> code;
    std::vector<std::int32_t> arg_pool;  ///< flattened kCall argument lists
    std::string entry_name;              ///< diagnostic only
    int entry_param_count = 0;
    /// Frame size of the entry: the function's reg_count plus two scratch
    /// slots per lowered loop (index and trip count live in the frame, so
    /// the executor keeps no side stack for loops).
    int entry_reg_count = 0;
    /// Largest frame (regs + scratch) of any lowered function: the executor
    /// sizes its register arena once, up front, as entry_reg_count plus
    /// max_frame_size words per allowed call depth, so frame pushes never
    /// reallocate (the arena pointer stays stable for the whole run).
    int max_frame_size = 0;
    std::int32_t entry_ret_reg = -1;
    std::size_t function_count = 0;
    /// ir::estimate_charges of the entry: used to pre-reserve
    /// RunResult::power_trace so the tracing hot path never reallocates.
    std::int64_t estimated_charges = 0;
};

/// Lowers region trees into CompiledTraces.
struct TraceCompiler {
    /// Returns nullptr when the program cannot be lowered (the entry or a
    /// transitively called function is undefined); callers fall back to the
    /// interpreter, which reproduces the exact runtime error surface.
    [[nodiscard]] static std::shared_ptr<const CompiledTrace> compile(
        const ir::Program& program, const std::string& entry,
        const isa::TargetModel& model);
};

/// Canonical fingerprint of a cost model: every field that influences a
/// lowered trace or a charge, hashed by bit pattern.  Two cores with equal
/// fingerprints produce interchangeable traces.
[[nodiscard]] std::uint64_t model_fingerprint(const isa::TargetModel& model);

/// Bounded, thread-safe LRU cache of compiled traces, keyed by
/// (structural fingerprint of the reachable program, model fingerprint).
/// Failed lowerings are cached as null entries so undefined-callee
/// programs do not re-attempt compilation every run.
class TraceCache {
public:
    struct Budget {
        /// Max resident traces; 0 = unbounded (mirrors EvaluationCache).
        std::size_t max_entries = 128;
    };

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;

        [[nodiscard]] double hit_ratio() const {
            const auto total = hits + misses;
            return total > 0
                       ? static_cast<double>(hits) / static_cast<double>(total)
                       : 0.0;
        }
    };

    TraceCache() : TraceCache(Budget{}) {}
    explicit TraceCache(Budget budget) : budget_(budget) {}

    /// Cache lookup; compiles and admits on miss (evicting cold traces
    /// beyond the budget).  The returned trace may be null (uncompilable
    /// program — interpreter fallback).  Compilation runs outside the
    /// cache lock; a racing miss on the same key wastes one compile but
    /// both racers observe the same admitted trace.
    [[nodiscard]] std::shared_ptr<const CompiledTrace> get_or_compile(
        const ir::Program& program, const std::string& entry,
        const isa::TargetModel& model);

    [[nodiscard]] Stats stats() const;
    /// Drop every entry and reset counters.
    void clear();

    /// Lazily constructed process-wide cache: what machines use when the
    /// trace backend is selected without an explicit cache.
    [[nodiscard]] static const std::shared_ptr<TraceCache>& process_wide();

private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    struct Entry {
        std::shared_ptr<const CompiledTrace> trace;
        std::list<Key>::iterator lru_it;
    };

    void evict_to_budget_locked();

    Budget budget_;
    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    std::list<Key> lru_;  ///< front = most recently used
    Stats stats_;
};

}  // namespace teamplay::sim
