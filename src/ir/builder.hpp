// Fluent construction of structured IR functions.
//
// The builder is how the use-case applications (camera pill, SpaceWire link,
// UAV pipeline, parking CNN) are written: it plays the role of the C
// front-end in the paper's workflows.  It allocates virtual registers,
// collects straight-line instructions into blocks, and nests If/Loop regions
// with a frame stack so the resulting tree is well-formed by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace teamplay::ir {

class FunctionBuilder {
public:
    /// Begin a function whose parameters occupy r0..r(param_count-1).
    FunctionBuilder(std::string name, int param_count);

    // -- values ------------------------------------------------------------

    /// Register holding parameter `i`.
    [[nodiscard]] Reg param(int i) const;

    /// Materialise a constant.
    Reg imm(Word value);

    /// Copy a register (also the taint-source marker: see `secret`).
    Reg mov(Reg src);

    /// Overwrite an existing register in place (emits Mov dst, src).  This
    /// is the only way to express loop-carried *register* state; the unroll
    /// pass detects such loops and refuses them by design, so kernels that
    /// want to stay unrollable should carry state through memory instead.
    void assign(Reg dst, Reg src);

    /// Copy a register and tag the result as secret data.  Downstream taint
    /// analysis treats this as the root of secret flow (e.g. a key load).
    Reg secret(Reg src);

    /// Load a constant and tag it secret (convenience for key material).
    Reg secret_imm(Word value);

    Reg add(Reg a, Reg b);
    Reg sub(Reg a, Reg b);
    Reg mul(Reg a, Reg b);
    Reg div(Reg a, Reg b);
    Reg rem(Reg a, Reg b);
    Reg band(Reg a, Reg b);
    Reg bor(Reg a, Reg b);
    Reg bxor(Reg a, Reg b);
    Reg shl(Reg a, Reg b);
    Reg shr(Reg a, Reg b);
    Reg bnot(Reg a);
    Reg neg(Reg a);
    Reg cmp_eq(Reg a, Reg b);
    Reg cmp_ne(Reg a, Reg b);
    Reg cmp_lt(Reg a, Reg b);
    Reg cmp_gt(Reg a, Reg b);
    Reg cmp_ge(Reg a, Reg b);
    Reg smin(Reg a, Reg b);
    Reg smax(Reg a, Reg b);
    Reg sabs(Reg a);
    Reg popcnt(Reg a);

    // Immediate-operand conveniences (materialise the constant first).
    Reg add_imm(Reg a, Word v);
    Reg mul_imm(Reg a, Word v);
    Reg and_imm(Reg a, Word v);
    Reg shl_imm(Reg a, Word v);
    Reg shr_imm(Reg a, Word v);

    /// dst = mem[addr + offset]
    Reg load(Reg addr, Word offset = 0);
    /// mem[addr + offset] = value
    void store(Reg addr, Reg value, Word offset = 0);

    /// Branch-free conditional move: cond ? a : b.
    Reg select(Reg cond, Reg a, Reg b);

    void nop();

    // -- control structure ---------------------------------------------------

    /// Open a counted loop executing `trip` times with static bound `bound`
    /// (defaults to `trip`).  Returns the register holding the iteration
    /// index (0-based) inside the body.
    Reg loop_begin(std::int64_t trip, std::int64_t bound = -1);

    /// Open a loop whose trip count is read from `trip_reg` at entry, with
    /// static analysis bound `bound`.  Returns the index register.
    Reg dynamic_loop_begin(Reg trip_reg, std::int64_t bound);

    void loop_end();

    void if_begin(Reg cond);
    void if_else();
    void if_end();

    /// Call `callee` with the given argument registers; returns the register
    /// receiving the callee's return value.
    Reg call(const std::string& callee, std::vector<Reg> args);

    /// Designate the return value.
    void ret(Reg value);

    /// Finish; the builder must have no open control structures.
    [[nodiscard]] Function build();

private:
    enum class FrameKind : std::uint8_t { kSeq, kThen, kElse, kLoop };

    struct Frame {
        FrameKind kind = FrameKind::kSeq;
        std::vector<NodePtr> nodes;
        std::vector<Instr> pending;
        // kThen/kElse
        Reg cond = kNoReg;
        std::vector<NodePtr> then_nodes;  ///< filled when switching to kElse
        // kLoop
        std::int64_t trip = 0;
        std::int64_t bound = 0;
        Reg trip_reg = kNoReg;
        Reg index_reg = kNoReg;
    };

    Reg fresh();
    void emit(Instr instr);
    void flush();  ///< move pending instrs into a Block node
    Reg emit_binop(Opcode op, Reg a, Reg b);
    Reg emit_unop(Opcode op, Reg a);
    [[nodiscard]] static NodePtr wrap(std::vector<NodePtr> nodes);

    std::string name_;
    int param_count_ = 0;
    Reg next_reg_ = 0;
    Reg ret_reg_ = kNoReg;
    std::vector<Frame> frames_;
    bool built_ = false;
};

}  // namespace teamplay::ir
