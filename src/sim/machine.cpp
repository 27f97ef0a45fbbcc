#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ir/lowering.hpp"
#include "sim/trace.hpp"

namespace teamplay::sim {

namespace {

constexpr int kMaxCallDepth = 64;

// Out-of-line throw helpers for the trace executor.  The throw expressions
// must not live inside the dispatch handlers: every call site clobbers the
// XMM register file, so inline throws force the cycle/energy accumulators
// onto the stack for the entire run loop (a store-forwarding round trip
// per simulated instruction).  As cold noinline noreturn functions the
// spills sink into the error paths.
[[noreturn, gnu::cold, gnu::noinline]] void throw_budget_exceeded() {
    throw std::runtime_error(
        "Machine: instruction budget exceeded (runaway program?)");
}
[[noreturn, gnu::cold, gnu::noinline]] void throw_load_oob() {
    throw std::out_of_range("Machine: load out of bounds");
}
[[noreturn, gnu::cold, gnu::noinline]] void throw_store_oob() {
    throw std::out_of_range("Machine: store out of bounds");
}
[[noreturn, gnu::cold, gnu::noinline]] void throw_loop_bound() {
    throw std::runtime_error(
        "Machine: dynamic loop trip exceeds static bound in function "
        "execution");
}
[[noreturn, gnu::cold, gnu::noinline]] void throw_call_depth() {
    throw std::runtime_error("Machine: call depth exceeded");
}

/// Cap on the up-front power-trace reservation (samples).  The static
/// charge estimate takes loop bounds and the wider side of every If, so it
/// can exceed the actual sample count by orders of magnitude on
/// early-exiting programs; beyond this cap, amortised vector growth is
/// cheaper than the over-allocation.
constexpr std::int64_t kMaxTraceReserve = 1 << 20;

}  // namespace

Machine::Machine(const ir::Program& program, const platform::Core& core,
                 std::size_t opp_index, std::uint64_t seed, SimOptions sim)
    : program_(&program), core_(&core), opp_index_(opp_index),
      energy_scale_(core.energy_scale(core.opp(opp_index))),
      memory_(program.memory_words, 0), rng_(seed), backend_(sim.backend),
      trace_cache_(std::move(sim.trace_cache)) {
    if (backend_ == SimBackend::kTrace && trace_cache_ == nullptr)
        trace_cache_ = TraceCache::process_wide();
}

void Machine::poke(std::size_t address, ir::Word value) {
    if (address >= memory_.size())
        throw std::out_of_range("Machine::poke: address out of range");
    memory_[address] = value;
}

ir::Word Machine::peek(std::size_t address) const {
    if (address >= memory_.size())
        throw std::out_of_range("Machine::peek: address out of range");
    return memory_[address];
}

void Machine::poke_span(std::size_t address, std::span<const ir::Word> values) {
    if (address + values.size() > memory_.size())
        throw std::out_of_range("Machine::poke_span: range out of bounds");
    std::copy(values.begin(), values.end(),
              memory_.begin() + static_cast<std::ptrdiff_t>(address));
}

std::vector<ir::Word> Machine::peek_span(std::size_t address,
                                         std::size_t count) const {
    if (address + count > memory_.size())
        throw std::out_of_range("Machine::peek_span: range out of bounds");
    return {memory_.begin() + static_cast<std::ptrdiff_t>(address),
            memory_.begin() + static_cast<std::ptrdiff_t>(address + count)};
}

void Machine::clear_memory() {
    std::fill(memory_.begin(), memory_.end(), 0);
}

double Machine::stochastic_cycles(double base, bool memory_access) {
    const auto& model = core_->model;
    if (model.predictable) return base;
    double cycles = base;
    if (model.timing_jitter_sigma > 0.0) {
        const double factor =
            1.0 + rng_.gaussian(0.0, model.timing_jitter_sigma);
        cycles *= factor < 0.1 ? 0.1 : factor;
    }
    if (memory_access && rng_.chance(model.cache_miss_prob))
        cycles += model.cache_miss_penalty;
    return cycles;
}

template <bool RecordTrace>
void Machine::charge(isa::InstrClass cls, ir::Word data_value,
                     RunResult& result) {
    const auto& model = core_->model;
    const bool is_mem =
        cls == isa::InstrClass::kLoad || cls == isa::InstrClass::kStore;
    const double cycles = stochastic_cycles(model.cycles_of(cls), is_mem);
    const double data_pj =
        model.data_alpha_pj_per_bit *
        static_cast<double>(std::popcount(static_cast<std::uint64_t>(data_value)));
    const double energy_j =
        (model.energy_of(cls) + data_pj) * energy_scale_ * 1e-12;

    result.cycles += cycles;
    result.dynamic_energy_j += energy_j;
    ++result.instrs_executed;
    ++result.class_counts[static_cast<std::size_t>(cls)];

    if constexpr (RecordTrace) {
        const auto& point = core_->opp(opp_index_);
        const double duration_s = cycles / point.freq_hz;
        result.power_trace.push_back(duration_s > 0.0 ? energy_j / duration_s
                                                      : 0.0);
    }
    if (result.instrs_executed > budget_)
        throw std::runtime_error(
            "Machine: instruction budget exceeded (runaway program?)");
}

template <bool RecordTrace>
void Machine::charge_overhead(double cycles, double energy_pj,
                              RunResult& result) {
    const double actual = stochastic_cycles(cycles, false);
    const double energy_j = energy_pj * energy_scale_ * 1e-12;
    result.cycles += actual;
    result.dynamic_energy_j += energy_j;
    if constexpr (RecordTrace) {
        const auto& point = core_->opp(opp_index_);
        const double duration_s = actual / point.freq_hz;
        result.power_trace.push_back(duration_s > 0.0 ? energy_j / duration_s
                                                      : 0.0);
    }
}

template <bool RecordTrace>
void Machine::exec_block(const ir::Node& node, Frame& frame,
                         RunResult& result) {
    using ir::Opcode;
    auto& regs = frame.regs;
    for (const auto& instr : node.instrs) {
        switch (instr.op) {
            case Opcode::kNop:
                charge<RecordTrace>(isa::InstrClass::kNop, 0, result);
                break;
            case Opcode::kMovImm:
                regs[static_cast<std::size_t>(instr.dst)] = instr.imm;
                charge<RecordTrace>(isa::InstrClass::kMove, instr.imm,
                                    result);
                break;
            // Each compute case with a fixed opcode passes it as a
            // constant, so the evaluator's switch folds away at compile
            // time.
            case Opcode::kMov: {
                const ir::Word v = ir::eval_unary(
                    Opcode::kMov, regs[static_cast<std::size_t>(instr.a)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kMove, v, result);
                break;
            }
            case Opcode::kNot: {
                const ir::Word v = ir::eval_unary(
                    Opcode::kNot, regs[static_cast<std::size_t>(instr.a)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kAlu, v, result);
                break;
            }
            case Opcode::kNeg: {
                const ir::Word v = ir::eval_unary(
                    Opcode::kNeg, regs[static_cast<std::size_t>(instr.a)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kAlu, v, result);
                break;
            }
            case Opcode::kAbs: {
                const ir::Word v = ir::eval_unary(
                    Opcode::kAbs, regs[static_cast<std::size_t>(instr.a)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kAlu, v, result);
                break;
            }
            case Opcode::kPopcnt: {
                const ir::Word v = ir::eval_unary(
                    Opcode::kPopcnt, regs[static_cast<std::size_t>(instr.a)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kAlu, v, result);
                break;
            }
            case Opcode::kLoad: {
                const ir::Word addr = ir::eval_binary(
                    Opcode::kAdd, regs[static_cast<std::size_t>(instr.a)],
                    instr.imm);
                if (addr < 0 ||
                    static_cast<std::size_t>(addr) >= memory_.size())
                    throw std::out_of_range("Machine: load out of bounds");
                const ir::Word v = memory_[static_cast<std::size_t>(addr)];
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kLoad, v, result);
                break;
            }
            case Opcode::kStore: {
                const ir::Word addr = ir::eval_binary(
                    Opcode::kAdd, regs[static_cast<std::size_t>(instr.a)],
                    instr.imm);
                if (addr < 0 ||
                    static_cast<std::size_t>(addr) >= memory_.size())
                    throw std::out_of_range("Machine: store out of bounds");
                const ir::Word v = regs[static_cast<std::size_t>(instr.b)];
                memory_[static_cast<std::size_t>(addr)] = v;
                charge<RecordTrace>(isa::InstrClass::kStore, v, result);
                break;
            }
            case Opcode::kSelect: {
                const ir::Word c = regs[static_cast<std::size_t>(instr.c)];
                const ir::Word v =
                    c != 0 ? regs[static_cast<std::size_t>(instr.a)]
                           : regs[static_cast<std::size_t>(instr.b)];
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kSelect, v, result);
                break;
            }
            case Opcode::kDiv:
            case Opcode::kRem: {
                const ir::Word v =
                    ir::eval_binary(instr.op,
                                    regs[static_cast<std::size_t>(instr.a)],
                                    regs[static_cast<std::size_t>(instr.b)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kDiv, v, result);
                break;
            }
            case Opcode::kMul: {
                const ir::Word v =
                    ir::eval_binary(instr.op,
                                    regs[static_cast<std::size_t>(instr.a)],
                                    regs[static_cast<std::size_t>(instr.b)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kMul, v, result);
                break;
            }
            default: {
                const ir::Word v =
                    ir::eval_binary(instr.op,
                                    regs[static_cast<std::size_t>(instr.a)],
                                    regs[static_cast<std::size_t>(instr.b)]);
                regs[static_cast<std::size_t>(instr.dst)] = v;
                charge<RecordTrace>(isa::InstrClass::kAlu, v, result);
                break;
            }
        }
    }
}

template <bool RecordTrace>
void Machine::exec_node(const ir::Node& node, Frame& frame, RunResult& result,
                        int call_depth) {
    using ir::NodeKind;
    const auto& model = core_->model;
    switch (node.kind) {
        case NodeKind::kBlock:
            exec_block<RecordTrace>(node, frame, result);
            break;
        case NodeKind::kSeq:
            for (const auto& child : node.children)
                exec_node<RecordTrace>(*child, frame, result, call_depth);
            break;
        case NodeKind::kIf: {
            charge_overhead<RecordTrace>(model.branch_cycles,
                                         model.branch_energy_pj, result);
            const ir::Word cond =
                frame.regs[static_cast<std::size_t>(node.cond)];
            if (cond != 0) {
                exec_node<RecordTrace>(*node.then_branch, frame, result,
                                       call_depth);
            } else if (node.else_branch) {
                exec_node<RecordTrace>(*node.else_branch, frame, result,
                                       call_depth);
            }
            break;
        }
        case NodeKind::kLoop: {
            std::int64_t trips = node.trip;
            if (node.trip_reg != ir::kNoReg) {
                trips = frame.regs[static_cast<std::size_t>(node.trip_reg)];
                if (trips < 0) trips = 0;
                if (trips > node.bound)
                    throw std::runtime_error(
                        "Machine: dynamic loop trip exceeds static bound in "
                        "function execution");
            }
            for (std::int64_t i = 0; i < trips; ++i) {
                charge_overhead<RecordTrace>(model.loop_iter_cycles,
                                             model.loop_iter_energy_pj,
                                             result);
                if (node.index_reg != ir::kNoReg)
                    frame.regs[static_cast<std::size_t>(node.index_reg)] =
                        i * node.stride;
                exec_node<RecordTrace>(*node.body, frame, result, call_depth);
            }
            break;
        }
        case NodeKind::kCall: {
            if (call_depth >= kMaxCallDepth)
                throw std::runtime_error("Machine: call depth exceeded");
            const ir::Function* callee = program_->find(node.callee);
            if (callee == nullptr)
                throw std::runtime_error("Machine: undefined function '" +
                                         node.callee + "'");
            charge_overhead<RecordTrace>(model.call_cycles,
                                         model.call_energy_pj, result);
            Frame inner;
            inner.regs.assign(static_cast<std::size_t>(callee->reg_count), 0);
            for (std::size_t i = 0; i < node.args.size(); ++i)
                inner.regs[i] =
                    frame.regs[static_cast<std::size_t>(node.args[i])];
            exec_node<RecordTrace>(*callee->body, inner, result,
                                   call_depth + 1);
            if (node.ret != ir::kNoReg && callee->ret_reg != ir::kNoReg)
                frame.regs[static_cast<std::size_t>(node.ret)] =
                    inner.regs[static_cast<std::size_t>(callee->ret_reg)];
            break;
        }
    }
}

template <bool RecordTrace, bool Predictable, bool Lockstep>
void Machine::exec_trace(const CompiledTrace& trace,
                         std::span<const ir::Word> args, RunResult& result,
                         std::span<Lane> lanes) {
    // A lockstep pass has no single cycle count to trace power against,
    // and predictable cores have no noise to draw per lane.
    static_assert(!Lockstep || (!RecordTrace && !Predictable));
    const auto& model = core_->model;
    const double freq_hz = core_->opp(opp_index_).freq_hz;
    const double alpha = model.data_alpha_pj_per_bit;
    const double scale = energy_scale_;
    // Stochastic-timing constants, consulted only on complex cores.
    const double jitter_sigma = model.timing_jitter_sigma;
    const bool has_jitter = jitter_sigma > 0.0;
    const double miss_prob = model.cache_miss_prob;
    const double miss_penalty = model.cache_miss_penalty;

    // Register arena: the entry frame at base 0, callee frames stacked
    // behind it (each frame includes the loop scratch slots the compiler
    // allocated past the IR registers).  Sized once for the deepest legal
    // call stack so frame pushes never reallocate: the arena pointer is
    // stable for the whole run and kCall/kRet make no library calls — any
    // call site inside a dispatch handler forces the floating-point
    // accumulators below out of their registers.  Frames are zero-filled
    // (interpreter fresh-Frame semantics) by the fused init loops; the
    // zero/copy mix keeps the compiler from lifting them into memset calls.
    auto& regs = trace_arena_;
    const std::size_t entry_words =
        static_cast<std::size_t>(trace.entry_reg_count);
    const std::size_t arena_words =
        entry_words + static_cast<std::size_t>(kMaxCallDepth) *
                          static_cast<std::size_t>(trace.max_frame_size);
    if (regs.size() < arena_words) regs.resize(arena_words);
    ir::Word* const regs0 = regs.data();
    for (std::size_t i = 0; i < entry_words; ++i)
        regs0[i] = i < args.size() ? args[i] : 0;
    std::size_t base = 0;
    std::size_t top = entry_words;  ///< high-water mark of the frame stack
    ir::Word* frame = regs0;

    ir::Word* const mem = memory_.data();
    const ir::Word mem_size = static_cast<ir::Word>(memory_.size());

    auto& calls = trace_calls_;
    if (calls.size() < static_cast<std::size_t>(kMaxCallDepth))
        calls.resize(static_cast<std::size_t>(kMaxCallDepth));
    TraceCall* const call_base = calls.data();
    TraceCall* call_sp = call_base;

    const TraceInstr* const code = trace.code.data();
    std::uint32_t pc = 0;

    // Cost accounting lives in locals (registers) and is flushed to
    // `result` on successful completion only: the accumulation starts from
    // zero and performs the exact floating-point add sequence the
    // interpreter performs on the freshly-zeroed RunResult, so the flush
    // by assignment is bit-identical.  Error paths leave `result` stale,
    // which is unobservable — `run` propagates the exception and every
    // caller discards the result object on throw.
    double cycles_acc = 0.0;
    double energy_acc = 0.0;
    std::int64_t instrs = 0;
    std::array<std::int64_t, isa::kNumInstrClasses> counts{};
    const std::int64_t budget = budget_;
    Lane* const lanes_begin = lanes.data();
    Lane* const lanes_end = lanes_begin + lanes.size();

// The charge epilogue of every compute op: identical floating-point
// expression shapes and RNG consumption as Machine::charge
// (stochastic_cycles is inlined with its model loads hoisted), with the
// cost-table lookups replaced by the values pre-decoded into the
// instruction.  These are macros, not lambdas, on purpose: reference
// captures take the accumulators' addresses, which forces GCC to keep
// them on the stack — a store-forwarding round trip per instruction in
// the hottest path of the whole simulator.  As plain locals they live in
// registers.
#define TP_STOCH(rng, cycles_var, is_mem)                               \
    do {                                                                \
        if constexpr (!Predictable) {                                   \
            if (has_jitter) {                                           \
                const double tp_factor =                                \
                    1.0 + (rng).gaussian(0.0, jitter_sigma);            \
                (cycles_var) *= tp_factor < 0.1 ? 0.1 : tp_factor;      \
            }                                                           \
            if ((is_mem) && (rng).chance(miss_prob))                    \
                (cycles_var) += miss_penalty;                           \
        }                                                               \
    } while (0)
// Accrues one event's cycles, `cycles_var` holding its base on entry: to
// the run's accumulator from the machine's RNG, or in lockstep to every
// lane's accumulator from that lane's own RNG — in each lane the same
// draws, in the same order, as a standalone run with the lane's seed.
#define TP_ACCRUE(cycles_var, is_mem)                                   \
    do {                                                                \
        if constexpr (Lockstep) {                                       \
            for (Lane* tp_lane = lanes_begin; tp_lane != lanes_end;     \
                 ++tp_lane) {                                           \
                double tp_lane_cycles = (cycles_var);                   \
                TP_STOCH(tp_lane->rng, tp_lane_cycles, (is_mem));       \
                tp_lane->cycles += tp_lane_cycles;                      \
            }                                                           \
        } else {                                                        \
            TP_STOCH(rng_, (cycles_var), (is_mem));                     \
            cycles_acc += (cycles_var);                                 \
        }                                                               \
    } while (0)
#define TP_CHARGE(in, value, is_mem)                                    \
    do {                                                                \
        double tp_cycles = (in).base_cycles;                            \
        TP_ACCRUE(tp_cycles, (is_mem));                                 \
        const double tp_data_pj =                                       \
            alpha * static_cast<double>(std::popcount(                  \
                        static_cast<std::uint64_t>(value)));            \
        const double tp_energy_j =                                      \
            ((in).base_energy_pj + tp_data_pj) * scale * 1e-12;         \
        energy_acc += tp_energy_j;                                      \
        ++instrs;                                                       \
        ++counts[static_cast<std::size_t>((in).cls)];                   \
        if constexpr (RecordTrace) {                                    \
            const double tp_duration_s = tp_cycles / freq_hz;           \
            result.power_trace.push_back(                               \
                tp_duration_s > 0.0 ? tp_energy_j / tp_duration_s       \
                                    : 0.0);                             \
        }                                                               \
        if (instrs > budget) throw_budget_exceeded();                   \
    } while (0)
// Mirror of Machine::charge_overhead for branch/loop/call costs.
#define TP_OVERHEAD(in)                                                 \
    do {                                                                \
        double tp_actual = (in).base_cycles;                            \
        TP_ACCRUE(tp_actual, false);                                    \
        const double tp_energy_j = (in).base_energy_pj * scale * 1e-12; \
        energy_acc += tp_energy_j;                                      \
        if constexpr (RecordTrace) {                                    \
            const double tp_duration_s = tp_actual / freq_hz;           \
            result.power_trace.push_back(                               \
                tp_duration_s > 0.0 ? tp_energy_j / tp_duration_s       \
                                    : 0.0);                             \
        }                                                               \
    } while (0)
#define TP_REG(index) frame[(index)]

    // Threaded dispatch: computed goto (the labels-as-values extension of
    // GCC and Clang), one label per TOp in enum order.  Every handler
    // updates `pc` explicitly and ends in TP_DISPATCH().
    static const void* const kDispatch[kNumTOps] = {
        &&L_kNop,    &&L_kMovImm, &&L_kMov,    &&L_kNot,    &&L_kNeg,
        &&L_kAbs,    &&L_kPopcnt, &&L_kLoad,   &&L_kStore,  &&L_kSelect,
        &&L_kAdd,    &&L_kSub,    &&L_kMul,    &&L_kDiv,    &&L_kRem,
        &&L_kAnd,    &&L_kOr,     &&L_kXor,    &&L_kShl,    &&L_kShr,
        &&L_kCmpEq,  &&L_kCmpNe,  &&L_kCmpLt,  &&L_kCmpLe,  &&L_kCmpGt,
        &&L_kCmpGe,  &&L_kMin,    &&L_kMax,    &&L_kBranch, &&L_kJump,
        &&L_kLoopEnter, &&L_kLoopIter, &&L_kLoopBack, &&L_kCall, &&L_kRet,
    };
#define TP_CASE(name) L_##name:
#define TP_DISPATCH() \
    goto* kDispatch[static_cast<std::size_t>(code[pc].op)]

// Unary/binary compute-op bodies.
#define TP_UNARY(name, expr)                            \
    TP_CASE(name) {                                     \
        const TraceInstr& in = code[pc];                \
        const ir::Word a = TP_REG(in.a);                   \
        (void)a;                                        \
        const ir::Word v = (expr);                      \
        TP_REG(in.dst) = v;                                \
        TP_CHARGE(in, v, false);                        \
        ++pc;                                           \
        TP_DISPATCH();                                  \
    }
#define TP_BINOP(name, expr)                            \
    TP_CASE(name) {                                     \
        const TraceInstr& in = code[pc];                \
        const ir::Word a = TP_REG(in.a);                   \
        const ir::Word b = TP_REG(in.b);                   \
        (void)a;                                        \
        (void)b;                                        \
        const ir::Word v = (expr);                      \
        TP_REG(in.dst) = v;                                \
        TP_CHARGE(in, v, false);                        \
        ++pc;                                           \
        TP_DISPATCH();                                  \
    }

    using U = std::uint64_t;
    TP_DISPATCH();

    TP_CASE(kNop) {
        TP_CHARGE(code[pc], 0, false);
        ++pc;
        TP_DISPATCH();
    }
    TP_CASE(kMovImm) {
        const TraceInstr& in = code[pc];
        TP_REG(in.dst) = in.imm;
        TP_CHARGE(in, in.imm, false);
        ++pc;
        TP_DISPATCH();
    }
    TP_UNARY(kMov, a)
    TP_UNARY(kNot, ~a)
    TP_UNARY(kNeg, static_cast<ir::Word>(U{0} - static_cast<U>(a)))
    TP_UNARY(kAbs, a < 0 ? static_cast<ir::Word>(U{0} - static_cast<U>(a)) : a)
    TP_UNARY(kPopcnt,
             static_cast<ir::Word>(std::popcount(static_cast<U>(a))))
    TP_CASE(kLoad) {
        const TraceInstr& in = code[pc];
        const ir::Word addr = static_cast<ir::Word>(
            static_cast<U>(TP_REG(in.a)) + static_cast<U>(in.imm));
        if (addr < 0 || addr >= mem_size) throw_load_oob();
        const ir::Word v = mem[addr];
        TP_REG(in.dst) = v;
        TP_CHARGE(in, v, true);
        ++pc;
        TP_DISPATCH();
    }
    TP_CASE(kStore) {
        const TraceInstr& in = code[pc];
        const ir::Word addr = static_cast<ir::Word>(
            static_cast<U>(TP_REG(in.a)) + static_cast<U>(in.imm));
        if (addr < 0 || addr >= mem_size) throw_store_oob();
        const ir::Word v = TP_REG(in.b);
        mem[addr] = v;
        TP_CHARGE(in, v, true);
        ++pc;
        TP_DISPATCH();
    }
    TP_CASE(kSelect) {
        const TraceInstr& in = code[pc];
        const ir::Word v = TP_REG(in.c) != 0 ? TP_REG(in.a) : TP_REG(in.b);
        TP_REG(in.dst) = v;
        TP_CHARGE(in, v, false);
        ++pc;
        TP_DISPATCH();
    }
    TP_BINOP(kAdd, static_cast<ir::Word>(static_cast<U>(a) + static_cast<U>(b)))
    TP_BINOP(kSub, static_cast<ir::Word>(static_cast<U>(a) - static_cast<U>(b)))
    TP_BINOP(kMul, static_cast<ir::Word>(static_cast<U>(a) * static_cast<U>(b)))
    TP_BINOP(kDiv, b == 0    ? 0
                   : b == -1 ? static_cast<ir::Word>(U{0} - static_cast<U>(a))
                             : a / b)
    TP_BINOP(kRem, b == 0 || b == -1 ? 0 : a % b)
    TP_BINOP(kAnd, a& b)
    TP_BINOP(kOr, a | b)
    TP_BINOP(kXor, a ^ b)
    TP_BINOP(kShl,
             static_cast<ir::Word>(static_cast<U>(a) << (static_cast<U>(b) & 63U)))
    TP_BINOP(kShr,
             static_cast<ir::Word>(static_cast<U>(a) >> (static_cast<U>(b) & 63U)))
    TP_BINOP(kCmpEq, a == b ? 1 : 0)
    TP_BINOP(kCmpNe, a != b ? 1 : 0)
    TP_BINOP(kCmpLt, a < b ? 1 : 0)
    TP_BINOP(kCmpLe, a <= b ? 1 : 0)
    TP_BINOP(kCmpGt, a > b ? 1 : 0)
    TP_BINOP(kCmpGe, a >= b ? 1 : 0)
    TP_BINOP(kMin, a < b ? a : b)
    TP_BINOP(kMax, a > b ? a : b)

    TP_CASE(kBranch) {
        const TraceInstr& in = code[pc];
        TP_OVERHEAD(in);
        pc = TP_REG(in.c) != 0 ? pc + 1 : in.target;
        TP_DISPATCH();
    }
    TP_CASE(kJump) {
        pc = code[pc].target;
        TP_DISPATCH();
    }
    TP_CASE(kLoopEnter) {
        const TraceInstr& in = code[pc];
        std::int64_t trips = in.imm;
        if (in.a >= 0) {
            trips = TP_REG(in.a);
            if (trips < 0) trips = 0;
            if (trips > in.bound) throw_loop_bound();
        }
        if (trips <= 0) {
            pc = in.target;
        } else {
            TP_REG(in.dst) = 0;    // scratch index slot
            TP_REG(in.c) = trips;  // scratch trip slot
            ++pc;
        }
        TP_DISPATCH();
    }
    TP_CASE(kLoopIter) {
        const TraceInstr& in = code[pc];
        TP_OVERHEAD(in);
        if (in.dst >= 0) TP_REG(in.dst) = TP_REG(in.a) * in.imm;
        ++pc;
        TP_DISPATCH();
    }
    TP_CASE(kLoopBack) {
        const TraceInstr& in = code[pc];
        const ir::Word i = ++TP_REG(in.a);
        pc = i < TP_REG(in.b) ? in.target : pc + 1;
        TP_DISPATCH();
    }
    TP_CASE(kCall) {
        const TraceInstr& in = code[pc];
        if (call_sp - call_base >= kMaxCallDepth) throw_call_depth();
        TP_OVERHEAD(in);
        const std::size_t new_base = top;
        const std::int32_t* argp = trace.arg_pool.data() + in.aux;
        const std::size_t frame_words = static_cast<std::size_t>(in.a);
        const std::size_t arg_count = static_cast<std::size_t>(in.imm);
        // One pass: parameters from the caller's frame, the rest zeroed.
        for (std::size_t k = 0; k < frame_words; ++k)
            regs0[new_base + k] =
                k < arg_count
                    ? regs0[base + static_cast<std::size_t>(argp[k])]
                    : 0;
        *call_sp++ = TraceCall{pc + 1, static_cast<std::uint32_t>(base),
                               in.dst, in.b};
        base = new_base;
        top = new_base + frame_words;
        frame = regs0 + base;
        pc = in.target;
        TP_DISPATCH();
    }
    TP_CASE(kRet) {
        if (call_sp == call_base) {
            if (trace.entry_ret_reg >= 0)
                result.ret_value =
                    regs0[static_cast<std::size_t>(trace.entry_ret_reg)];
            goto tp_done;
        }
        const TraceCall rec = *--call_sp;
        if (rec.ret_dst >= 0 && rec.ret_src >= 0)
            regs0[rec.caller_base + static_cast<std::size_t>(rec.ret_dst)] =
                regs0[base + static_cast<std::size_t>(rec.ret_src)];
        top = base;
        base = rec.caller_base;
        frame = regs0 + base;
        pc = rec.ret_pc;
        TP_DISPATCH();
    }

tp_done:
    result.cycles = cycles_acc;  // 0 in lockstep: the lanes hold cycles
    result.dynamic_energy_j = energy_acc;
    result.instrs_executed = instrs;
    result.class_counts = counts;

#undef TP_CASE
#undef TP_DISPATCH
#undef TP_UNARY
#undef TP_BINOP
#undef TP_STOCH
#undef TP_ACCRUE
#undef TP_CHARGE
#undef TP_OVERHEAD
#undef TP_REG
}

std::shared_ptr<const CompiledTrace> Machine::resolve_trace(
    const std::string& function) {
    if (backend_ != SimBackend::kTrace) return nullptr;
    const auto it = traces_.find(function);
    if (it != traces_.end()) return it->second;
    std::shared_ptr<const CompiledTrace> trace;
    if (trace_cache_ != nullptr) {
        trace = trace_cache_->get_or_compile(*program_, function,
                                             core_->model);
    } else {
        trace = TraceCompiler::compile(*program_, function, core_->model);
    }
    traces_.emplace(function, trace);
    return trace;
}

void Machine::attach_trace(const std::string& function,
                           std::shared_ptr<const CompiledTrace> trace) {
    traces_[function] = std::move(trace);
    last_entry_.clear();
    last_fn_ = nullptr;
    last_trace_ = nullptr;
}

std::int64_t Machine::charge_estimate(const std::string& function) {
    const auto it = charge_estimates_.find(function);
    if (it != charge_estimates_.end()) return it->second;
    const ir::Function* fn = program_->find(function);
    const std::int64_t estimate =
        fn != nullptr ? ir::estimate_charges(*program_, *fn) : 0;
    charge_estimates_.emplace(function, estimate);
    return estimate;
}

const ir::Function& Machine::enter(const std::string& function,
                                   std::span<const ir::Word> args) {
    // Entry resolution (function lookup, trace resolution) is memoised for
    // the common repeated-run case; a different entry re-resolves.
    if (last_fn_ == nullptr || function != last_entry_) {
        const ir::Function* fn = program_->find(function);
        if (fn == nullptr)
            throw std::runtime_error("Machine: undefined function '" +
                                     function + "'");
        last_trace_ = backend_ == SimBackend::kTrace ? resolve_trace(function)
                                                     : nullptr;
        last_fn_ = fn;
        last_entry_ = function;
    }
    if (static_cast<int>(args.size()) != last_fn_->param_count)
        throw std::invalid_argument(
            "Machine: argument count mismatch for '" + function +
            "': expected " + std::to_string(last_fn_->param_count) +
            ", got " + std::to_string(args.size()));
    return *last_fn_;
}

void Machine::settle(RunResult& result) const {
    const auto& point = core_->opp(opp_index_);
    result.time_s = result.cycles / point.freq_hz;
    result.static_energy_j = point.static_power_w * result.time_s;
}

RunResult Machine::run(const std::string& function,
                       std::span<const ir::Word> args, bool record_trace) {
    const ir::Function& fn = enter(function, args);
    RunResult result;

    const CompiledTrace* const trace = last_trace_.get();

    if (trace != nullptr) {
        const bool predictable = core_->model.predictable;
        if (record_trace) {
            result.power_trace.reserve(static_cast<std::size_t>(
                std::min(trace->estimated_charges, kMaxTraceReserve)));
            if (predictable)
                exec_trace<true, true, false>(*trace, args, result, {});
            else
                exec_trace<true, false, false>(*trace, args, result, {});
        } else {
            if (predictable)
                exec_trace<false, true, false>(*trace, args, result, {});
            else
                exec_trace<false, false, false>(*trace, args, result, {});
        }
    } else {
        Frame frame;
        frame.regs.assign(static_cast<std::size_t>(fn.reg_count), 0);
        for (std::size_t i = 0; i < args.size(); ++i) frame.regs[i] = args[i];
        if (record_trace) {
            result.power_trace.reserve(static_cast<std::size_t>(
                std::min(charge_estimate(function), kMaxTraceReserve)));
            exec_node<true>(*fn.body, frame, result, 0);
        } else {
            exec_node<false>(*fn.body, frame, result, 0);
        }
        if (fn.ret_reg != ir::kNoReg)
            result.ret_value =
                frame.regs[static_cast<std::size_t>(fn.ret_reg)];
    }

    settle(result);
    return result;
}

std::vector<RunResult> Machine::run_seeds(
    const std::string& function, std::span<const ir::Word> args,
    std::span<const std::uint64_t> seeds) {
    (void)enter(function, args);
    std::vector<RunResult> results;
    if (seeds.empty()) return results;
    results.reserve(seeds.size());

    if (core_->model.predictable) {
        results.assign(seeds.size(), run(function, args));
        return results;
    }

    if (last_trace_ == nullptr) {
        // Interpreter: one standalone run per seed, each from the staged
        // memory image with a fresh RNG.  The machine's own stream resumes
        // afterwards, as the lockstep pass never touches it.
        const std::vector<ir::Word> staged = memory_;
        const support::Rng own = rng_;
        for (const std::uint64_t seed : seeds) {
            std::copy(staged.begin(), staged.end(), memory_.begin());
            rng_ = support::Rng(seed);
            results.push_back(run(function, args));
        }
        rng_ = own;
        return results;
    }

    std::vector<Lane> lanes;
    lanes.reserve(seeds.size());
    for (const std::uint64_t seed : seeds)
        lanes.push_back(Lane{support::Rng(seed)});
    RunResult shared;
    exec_trace<false, false, true>(*last_trace_, args, shared, lanes);
    for (const Lane& lane : lanes) {
        RunResult& result = results.emplace_back(shared);
        result.cycles = lane.cycles;
        settle(result);
    }
    return results;
}

}  // namespace teamplay::sim
