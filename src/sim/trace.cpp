#include "sim/trace.hpp"

#include <utility>

#include "ir/fingerprint.hpp"
#include "ir/lowering.hpp"
#include "support/fnv.hpp"

namespace teamplay::sim {

namespace {

/// Compute-op mapping.  Kept explicit (no ordinal arithmetic) so a
/// reordering of either enum is a compile-time/test-time failure, not a
/// silent misdispatch.
TOp compute_op(ir::Opcode op) {
    using ir::Opcode;
    switch (op) {
        case Opcode::kNop: return TOp::kNop;
        case Opcode::kMovImm: return TOp::kMovImm;
        case Opcode::kMov: return TOp::kMov;
        case Opcode::kNot: return TOp::kNot;
        case Opcode::kNeg: return TOp::kNeg;
        case Opcode::kAbs: return TOp::kAbs;
        case Opcode::kPopcnt: return TOp::kPopcnt;
        case Opcode::kLoad: return TOp::kLoad;
        case Opcode::kStore: return TOp::kStore;
        case Opcode::kSelect: return TOp::kSelect;
        case Opcode::kAdd: return TOp::kAdd;
        case Opcode::kSub: return TOp::kSub;
        case Opcode::kMul: return TOp::kMul;
        case Opcode::kDiv: return TOp::kDiv;
        case Opcode::kRem: return TOp::kRem;
        case Opcode::kAnd: return TOp::kAnd;
        case Opcode::kOr: return TOp::kOr;
        case Opcode::kXor: return TOp::kXor;
        case Opcode::kShl: return TOp::kShl;
        case Opcode::kShr: return TOp::kShr;
        case Opcode::kCmpEq: return TOp::kCmpEq;
        case Opcode::kCmpNe: return TOp::kCmpNe;
        case Opcode::kCmpLt: return TOp::kCmpLt;
        case Opcode::kCmpLe: return TOp::kCmpLe;
        case Opcode::kCmpGt: return TOp::kCmpGt;
        case Opcode::kCmpGe: return TOp::kCmpGe;
        case Opcode::kMin: return TOp::kMin;
        case Opcode::kMax: return TOp::kMax;
    }
    return TOp::kNop;
}

class Lowerer {
public:
    Lowerer(const ir::Program& program, const isa::TargetModel& model,
            CompiledTrace& out)
        : program_(program), model_(model), out_(out) {}

    void lower_function(const ir::Function& fn) {
        entry_pcs_[fn.name] = static_cast<std::uint32_t>(out_.code.size());
        frame_size_ = fn.reg_count;
        if (fn.body) lower_node(*fn.body);
        TraceInstr ret;
        ret.op = TOp::kRet;
        out_.code.push_back(ret);
        frame_sizes_[fn.name] = frame_size_;
    }

    /// Frame size of `fn` including loop scratch slots (valid once the
    /// function is lowered).
    [[nodiscard]] std::int32_t frame_size(const std::string& fn) const {
        return frame_sizes_.at(fn);
    }

    /// Largest frame of any lowered function.
    [[nodiscard]] std::int32_t max_frame_size() const {
        std::int32_t max = 0;
        for (const auto& [name, size] : frame_sizes_)
            if (size > max) max = size;
        return max;
    }

    void patch_calls() {
        for (const auto& [pc, callee] : call_patches_) {
            out_.code[pc].target = entry_pcs_.at(callee);
            // The callee's frame shape (with its scratch slots) is only
            // known after the callee itself is lowered.
            out_.code[pc].a = frame_sizes_.at(callee);
        }
    }

private:
    [[nodiscard]] std::uint32_t here() const {
        return static_cast<std::uint32_t>(out_.code.size());
    }

    void lower_node(const ir::Node& node) {
        using ir::NodeKind;
        switch (node.kind) {
            case NodeKind::kBlock:
                for (const auto& instr : node.instrs) lower_instr(instr);
                break;
            case NodeKind::kSeq:
                for (const auto& child : node.children) lower_node(*child);
                break;
            case NodeKind::kIf: {
                TraceInstr branch;
                branch.op = TOp::kBranch;
                branch.c = node.cond;
                branch.base_cycles = model_.branch_cycles;
                branch.base_energy_pj = model_.branch_energy_pj;
                const std::uint32_t branch_pc = here();
                out_.code.push_back(branch);
                lower_node(*node.then_branch);
                if (node.else_branch) {
                    TraceInstr jump;
                    jump.op = TOp::kJump;
                    const std::uint32_t jump_pc = here();
                    out_.code.push_back(jump);
                    out_.code[branch_pc].target = here();
                    lower_node(*node.else_branch);
                    out_.code[jump_pc].target = here();
                } else {
                    out_.code[branch_pc].target = here();
                }
                break;
            }
            case NodeKind::kLoop: {
                // Loop state lives in two frame scratch slots allocated
                // past the function's IR registers: no executor-side loop
                // stack, and recursion keeps per-frame state naturally.
                const std::int32_t index_slot = frame_size_++;
                const std::int32_t trip_slot = frame_size_++;

                TraceInstr enter;
                enter.op = TOp::kLoopEnter;
                enter.a = node.trip_reg;
                enter.imm = node.trip;
                enter.bound = node.bound;
                enter.dst = index_slot;
                enter.c = trip_slot;
                const std::uint32_t enter_pc = here();
                out_.code.push_back(enter);

                TraceInstr iter;
                iter.op = TOp::kLoopIter;
                iter.dst = node.index_reg;
                iter.imm = node.stride;
                iter.a = index_slot;
                iter.base_cycles = model_.loop_iter_cycles;
                iter.base_energy_pj = model_.loop_iter_energy_pj;
                const std::uint32_t iter_pc = here();
                out_.code.push_back(iter);

                lower_node(*node.body);

                TraceInstr back;
                back.op = TOp::kLoopBack;
                back.a = index_slot;
                back.b = trip_slot;
                back.target = iter_pc;
                out_.code.push_back(back);
                out_.code[enter_pc].target = here();
                break;
            }
            case NodeKind::kCall: {
                // The callee is defined (reachable_functions was complete).
                // Its frame size (call.a) is patched in patch_calls once
                // the callee's scratch slots are known.
                const ir::Function* callee = program_.find(node.callee);
                TraceInstr call;
                call.op = TOp::kCall;
                call.dst = node.ret;
                call.b = callee->ret_reg;
                call.imm = static_cast<ir::Word>(node.args.size());
                call.aux = static_cast<std::uint32_t>(out_.arg_pool.size());
                call.base_cycles = model_.call_cycles;
                call.base_energy_pj = model_.call_energy_pj;
                for (const ir::Reg arg : node.args)
                    out_.arg_pool.push_back(arg);
                call_patches_.emplace_back(here(), node.callee);
                out_.code.push_back(call);
                break;
            }
        }
    }

    void lower_instr(const ir::Instr& instr) {
        TraceInstr out;
        out.op = compute_op(instr.op);
        out.cls = isa::instr_class(instr.op);
        out.dst = instr.dst;
        out.a = instr.a;
        out.b = instr.b;
        out.c = instr.c;
        out.imm = instr.imm;
        out.base_cycles = model_.cycles_of(out.cls);
        out.base_energy_pj = model_.energy_of(out.cls);
        out_.code.push_back(out);
    }

    const ir::Program& program_;
    const isa::TargetModel& model_;
    CompiledTrace& out_;
    std::int32_t frame_size_ = 0;  ///< current function's regs + scratch
    std::map<std::string, std::uint32_t> entry_pcs_;
    std::map<std::string, std::int32_t> frame_sizes_;
    std::vector<std::pair<std::uint32_t, std::string>> call_patches_;
};

}  // namespace

std::shared_ptr<const CompiledTrace> TraceCompiler::compile(
    const ir::Program& program, const std::string& entry,
    const isa::TargetModel& model) {
    std::vector<const ir::Function*> functions;
    if (!ir::reachable_functions(program, entry, functions)) return nullptr;

    auto trace = std::make_shared<CompiledTrace>();
    trace->entry_name = entry;
    trace->entry_param_count = functions.front()->param_count;
    trace->entry_ret_reg = functions.front()->ret_reg;
    trace->function_count = functions.size();
    trace->estimated_charges =
        ir::estimate_charges(program, *functions.front());

    Lowerer lowerer(program, model, *trace);
    for (const ir::Function* fn : functions) lowerer.lower_function(*fn);
    lowerer.patch_calls();
    trace->entry_reg_count = lowerer.frame_size(functions.front()->name);
    trace->max_frame_size = lowerer.max_frame_size();
    return trace;
}

std::uint64_t model_fingerprint(const isa::TargetModel& model) {
    support::Fnv1a hash;
    hash.mix(std::uint64_t{0x544D4601});  // domain tag: "TMF" v1
    isa::mix_model(hash, model);
    return hash.value;
}

std::shared_ptr<const CompiledTrace> TraceCache::get_or_compile(
    const ir::Program& program, const std::string& entry,
    const isa::TargetModel& model) {
    const Key key{ir::structural_fingerprint(program, entry),
                  model_fingerprint(model)};
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            lru_.splice(lru_.begin(), lru_, it->second.lru_it);
            return it->second.trace;
        }
        ++stats_.misses;
    }

    auto trace = TraceCompiler::compile(program, entry, model);

    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
        lru_.push_front(key);
        it->second = Entry{std::move(trace), lru_.begin()};
        stats_.entries = entries_.size();
        evict_to_budget_locked();
    }
    return it->second.trace;
}

void TraceCache::evict_to_budget_locked() {
    if (budget_.max_entries == 0) return;
    while (entries_.size() > budget_.max_entries) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
    stats_.entries = entries_.size();
}

TraceCache::Stats TraceCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void TraceCache::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    stats_ = Stats{};
}

const std::shared_ptr<TraceCache>& TraceCache::process_wide() {
    static const std::shared_ptr<TraceCache> cache =
        std::make_shared<TraceCache>();
    return cache;
}

}  // namespace teamplay::sim
