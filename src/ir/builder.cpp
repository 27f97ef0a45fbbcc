#include "ir/builder.hpp"

#include <stdexcept>
#include <utility>

namespace teamplay::ir {

FunctionBuilder::FunctionBuilder(std::string name, int param_count)
    : name_(std::move(name)), param_count_(param_count),
      next_reg_(param_count) {
    frames_.push_back(Frame{});
}

Reg FunctionBuilder::param(int i) const {
    if (i < 0 || i >= param_count_)
        throw std::out_of_range("FunctionBuilder::param: index out of range");
    return i;
}

Reg FunctionBuilder::fresh() { return next_reg_++; }

void FunctionBuilder::emit(Instr instr) {
    frames_.back().pending.push_back(instr);
}

void FunctionBuilder::flush() {
    Frame& frame = frames_.back();
    if (!frame.pending.empty()) {
        frame.nodes.push_back(Node::block(std::move(frame.pending)));
        frame.pending.clear();
    }
}

NodePtr FunctionBuilder::wrap(std::vector<NodePtr> nodes) {
    return Node::seq(std::move(nodes));
}

Reg FunctionBuilder::emit_binop(Opcode op, Reg a, Reg b) {
    const Reg dst = fresh();
    emit(Instr{.op = op, .dst = dst, .a = a, .b = b});
    return dst;
}

Reg FunctionBuilder::emit_unop(Opcode op, Reg a) {
    const Reg dst = fresh();
    emit(Instr{.op = op, .dst = dst, .a = a});
    return dst;
}

Reg FunctionBuilder::imm(Word value) {
    const Reg dst = fresh();
    emit(Instr{.op = Opcode::kMovImm, .dst = dst, .imm = value});
    return dst;
}

Reg FunctionBuilder::mov(Reg src) { return emit_unop(Opcode::kMov, src); }

void FunctionBuilder::assign(Reg dst, Reg src) {
    emit(Instr{.op = Opcode::kMov, .dst = dst, .a = src});
}

Reg FunctionBuilder::secret(Reg src) {
    const Reg dst = fresh();
    emit(Instr{.op = Opcode::kMov, .dst = dst, .a = src, .secret = true});
    return dst;
}

Reg FunctionBuilder::secret_imm(Word value) {
    const Reg dst = fresh();
    emit(Instr{.op = Opcode::kMovImm, .dst = dst, .imm = value,
               .secret = true});
    return dst;
}

Reg FunctionBuilder::add(Reg a, Reg b) { return emit_binop(Opcode::kAdd, a, b); }
Reg FunctionBuilder::sub(Reg a, Reg b) { return emit_binop(Opcode::kSub, a, b); }
Reg FunctionBuilder::mul(Reg a, Reg b) { return emit_binop(Opcode::kMul, a, b); }
Reg FunctionBuilder::div(Reg a, Reg b) { return emit_binop(Opcode::kDiv, a, b); }
Reg FunctionBuilder::rem(Reg a, Reg b) { return emit_binop(Opcode::kRem, a, b); }
Reg FunctionBuilder::band(Reg a, Reg b) { return emit_binop(Opcode::kAnd, a, b); }
Reg FunctionBuilder::bor(Reg a, Reg b) { return emit_binop(Opcode::kOr, a, b); }
Reg FunctionBuilder::bxor(Reg a, Reg b) { return emit_binop(Opcode::kXor, a, b); }
Reg FunctionBuilder::shl(Reg a, Reg b) { return emit_binop(Opcode::kShl, a, b); }
Reg FunctionBuilder::shr(Reg a, Reg b) { return emit_binop(Opcode::kShr, a, b); }
Reg FunctionBuilder::bnot(Reg a) { return emit_unop(Opcode::kNot, a); }
Reg FunctionBuilder::neg(Reg a) { return emit_unop(Opcode::kNeg, a); }
Reg FunctionBuilder::cmp_eq(Reg a, Reg b) { return emit_binop(Opcode::kCmpEq, a, b); }
Reg FunctionBuilder::cmp_ne(Reg a, Reg b) { return emit_binop(Opcode::kCmpNe, a, b); }
Reg FunctionBuilder::cmp_lt(Reg a, Reg b) { return emit_binop(Opcode::kCmpLt, a, b); }
Reg FunctionBuilder::cmp_gt(Reg a, Reg b) { return emit_binop(Opcode::kCmpGt, a, b); }
Reg FunctionBuilder::cmp_ge(Reg a, Reg b) { return emit_binop(Opcode::kCmpGe, a, b); }
Reg FunctionBuilder::smin(Reg a, Reg b) { return emit_binop(Opcode::kMin, a, b); }
Reg FunctionBuilder::smax(Reg a, Reg b) { return emit_binop(Opcode::kMax, a, b); }
Reg FunctionBuilder::sabs(Reg a) { return emit_unop(Opcode::kAbs, a); }
Reg FunctionBuilder::popcnt(Reg a) { return emit_unop(Opcode::kPopcnt, a); }

Reg FunctionBuilder::add_imm(Reg a, Word v) { return add(a, imm(v)); }
Reg FunctionBuilder::mul_imm(Reg a, Word v) { return mul(a, imm(v)); }
Reg FunctionBuilder::and_imm(Reg a, Word v) { return band(a, imm(v)); }
Reg FunctionBuilder::shl_imm(Reg a, Word v) { return shl(a, imm(v)); }
Reg FunctionBuilder::shr_imm(Reg a, Word v) { return shr(a, imm(v)); }

Reg FunctionBuilder::load(Reg addr, Word offset) {
    const Reg dst = fresh();
    emit(Instr{.op = Opcode::kLoad, .dst = dst, .a = addr, .imm = offset});
    return dst;
}

void FunctionBuilder::store(Reg addr, Reg value, Word offset) {
    emit(Instr{.op = Opcode::kStore, .a = addr, .b = value, .imm = offset});
}

Reg FunctionBuilder::select(Reg cond, Reg a, Reg b) {
    const Reg dst = fresh();
    emit(Instr{.op = Opcode::kSelect, .dst = dst, .a = a, .b = b, .c = cond});
    return dst;
}

void FunctionBuilder::nop() { emit(Instr{.op = Opcode::kNop}); }

Reg FunctionBuilder::loop_begin(std::int64_t trip, std::int64_t bound) {
    if (trip < 0) throw std::invalid_argument("loop trip must be >= 0");
    if (bound < 0) bound = trip;
    if (bound < trip)
        throw std::invalid_argument("loop bound must be >= trip count");
    flush();
    Frame frame;
    frame.kind = FrameKind::kLoop;
    frame.trip = trip;
    frame.bound = bound;
    frame.index_reg = fresh();
    frames_.push_back(std::move(frame));
    return frames_.back().index_reg;
}

Reg FunctionBuilder::dynamic_loop_begin(Reg trip_reg, std::int64_t bound) {
    if (bound <= 0)
        throw std::invalid_argument("dynamic loop needs a positive bound");
    flush();
    Frame frame;
    frame.kind = FrameKind::kLoop;
    frame.trip_reg = trip_reg;
    frame.bound = bound;
    frame.index_reg = fresh();
    frames_.push_back(std::move(frame));
    return frames_.back().index_reg;
}

void FunctionBuilder::loop_end() {
    flush();
    if (frames_.size() < 2 || frames_.back().kind != FrameKind::kLoop)
        throw std::logic_error("loop_end without matching loop_begin");
    Frame frame = std::move(frames_.back());
    frames_.pop_back();
    NodePtr body = wrap(std::move(frame.nodes));
    NodePtr node =
        frame.trip_reg != kNoReg
            ? Node::dynamic_loop(frame.trip_reg, frame.bound, frame.index_reg,
                                 std::move(body))
            : Node::loop(frame.trip, frame.bound, frame.index_reg,
                         std::move(body));
    frames_.back().nodes.push_back(std::move(node));
}

void FunctionBuilder::if_begin(Reg cond) {
    flush();
    Frame frame;
    frame.kind = FrameKind::kThen;
    frame.cond = cond;
    frames_.push_back(std::move(frame));
}

void FunctionBuilder::if_else() {
    flush();
    if (frames_.size() < 2 || frames_.back().kind != FrameKind::kThen)
        throw std::logic_error("if_else without matching if_begin");
    Frame& frame = frames_.back();
    frame.kind = FrameKind::kElse;
    frame.then_nodes = std::move(frame.nodes);
    frame.nodes.clear();
}

void FunctionBuilder::if_end() {
    flush();
    if (frames_.size() < 2 || (frames_.back().kind != FrameKind::kThen &&
                               frames_.back().kind != FrameKind::kElse))
        throw std::logic_error("if_end without matching if_begin");
    Frame frame = std::move(frames_.back());
    frames_.pop_back();
    NodePtr then_branch;
    NodePtr else_branch;
    if (frame.kind == FrameKind::kThen) {
        then_branch = wrap(std::move(frame.nodes));
    } else {
        then_branch = wrap(std::move(frame.then_nodes));
        else_branch = wrap(std::move(frame.nodes));
    }
    frames_.back().nodes.push_back(Node::make_if(
        frame.cond, std::move(then_branch), std::move(else_branch)));
}

Reg FunctionBuilder::call(const std::string& callee, std::vector<Reg> args) {
    flush();
    const Reg dst = fresh();
    frames_.back().nodes.push_back(Node::call(callee, std::move(args), dst));
    return dst;
}

void FunctionBuilder::ret(Reg value) { ret_reg_ = value; }

Function FunctionBuilder::build() {
    if (built_) throw std::logic_error("FunctionBuilder::build called twice");
    if (frames_.size() != 1)
        throw std::logic_error("build with open control structures");
    built_ = true;
    flush();
    Function fn;
    fn.name = name_;
    fn.param_count = param_count_;
    fn.reg_count = next_reg_;
    fn.ret_reg = ret_reg_;
    fn.body = wrap(std::move(frames_.back().nodes));
    frames_.clear();
    return fn;
}

}  // namespace teamplay::ir
