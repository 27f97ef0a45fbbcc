// Three-address instructions of the TeamPlay intermediate representation.
//
// The IR models the "extracted C" level of the paper's workflows (Fig. 1/2):
// concrete enough that a cycle-approximate simulator can execute it and an
// ISA-level cost model can price it, abstract enough that compiler passes
// stay simple.  Registers are virtual and function-local; memory is a flat
// word-addressed array shared by all functions of a program.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace teamplay::ir {

/// Virtual register id.  Parameters of a function occupy r0..r(n-1).
using Reg = std::int32_t;

/// Sentinel for "no register".
inline constexpr Reg kNoReg = -1;

/// Machine word. All IR arithmetic is 64-bit two's complement and wraps on
/// overflow, so no operation traps; narrower target behaviour (e.g. 32-bit
/// Cortex-M0 registers) is modelled by the cost tables, not by the value
/// semantics.
using Word = std::int64_t;

enum class Opcode : std::uint8_t {
    kNop,
    kMovImm,  ///< dst = imm
    kMov,     ///< dst = a
    kAdd,     ///< dst = a + b   (wraps)
    kSub,     ///< dst = a - b   (wraps)
    kMul,     ///< dst = a * b   (wraps)
    kDiv,     ///< dst = a / b   (b == 0 yields 0, as a trap-free model;
              ///<  INT64_MIN / -1 wraps to INT64_MIN)
    kRem,     ///< dst = a % b   (b == 0 yields 0; INT64_MIN % -1 is 0)
    kAnd,     ///< dst = a & b
    kOr,      ///< dst = a | b
    kXor,     ///< dst = a ^ b
    kShl,     ///< dst = a << (b & 63)
    kShr,     ///< dst = (unsigned)a >> (b & 63)
    kNot,     ///< dst = ~a
    kNeg,     ///< dst = -a      (wraps: -INT64_MIN is INT64_MIN)
    kCmpEq,   ///< dst = (a == b)
    kCmpNe,   ///< dst = (a != b)
    kCmpLt,   ///< dst = (a < b)  signed
    kCmpLe,   ///< dst = (a <= b) signed
    kCmpGt,   ///< dst = (a > b)  signed
    kCmpGe,   ///< dst = (a >= b) signed
    kMin,     ///< dst = min(a, b) signed
    kMax,     ///< dst = max(a, b) signed
    kAbs,     ///< dst = |a|     (wraps: |INT64_MIN| is INT64_MIN)
    kPopcnt,  ///< dst = popcount(a)
    kLoad,    ///< dst = mem[a + imm]   (the address sum wraps)
    kStore,   ///< mem[a + imm] = b     (the address sum wraps)
    kSelect,  ///< dst = c ? a : b   (branch-free conditional move)
};

/// Number of opcodes; used to size per-opcode tables.
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::kSelect) + 1;

/// Value of a unary compute op (kMov, kNot, kNeg, kAbs, kPopcnt); 0 for any
/// other opcode.  The interpreter and the constant folder both evaluate
/// through this and eval_binary; wrapping goes through std::uint64_t.
[[nodiscard]] constexpr Word eval_unary(Opcode op, Word a) {
    using U = std::uint64_t;
    switch (op) {
        case Opcode::kMov: return a;
        case Opcode::kNot: return ~a;
        case Opcode::kNeg: return static_cast<Word>(U{0} - static_cast<U>(a));
        case Opcode::kAbs: return a < 0 ? eval_unary(Opcode::kNeg, a) : a;
        case Opcode::kPopcnt:
            return static_cast<Word>(std::popcount(static_cast<U>(a)));
        default: return 0;
    }
}

/// Value of a binary compute op (kAdd through kMax, except the unary ones);
/// 0 for any other opcode.
[[nodiscard]] constexpr Word eval_binary(Opcode op, Word a, Word b) {
    using U = std::uint64_t;
    switch (op) {
        case Opcode::kAdd: return static_cast<Word>(static_cast<U>(a) + static_cast<U>(b));
        case Opcode::kSub: return static_cast<Word>(static_cast<U>(a) - static_cast<U>(b));
        case Opcode::kMul: return static_cast<Word>(static_cast<U>(a) * static_cast<U>(b));
        case Opcode::kDiv:
            if (b == 0) return 0;
            return b == -1 ? eval_unary(Opcode::kNeg, a) : a / b;
        case Opcode::kRem: return b == 0 || b == -1 ? 0 : a % b;
        case Opcode::kAnd: return a & b;
        case Opcode::kOr: return a | b;
        case Opcode::kXor: return a ^ b;
        case Opcode::kShl:
            return static_cast<Word>(static_cast<U>(a) << (static_cast<U>(b) & 63U));
        case Opcode::kShr:
            return static_cast<Word>(static_cast<U>(a) >> (static_cast<U>(b) & 63U));
        case Opcode::kCmpEq: return a == b ? 1 : 0;
        case Opcode::kCmpNe: return a != b ? 1 : 0;
        case Opcode::kCmpLt: return a < b ? 1 : 0;
        case Opcode::kCmpLe: return a <= b ? 1 : 0;
        case Opcode::kCmpGt: return a > b ? 1 : 0;
        case Opcode::kCmpGe: return a >= b ? 1 : 0;
        case Opcode::kMin: return a < b ? a : b;
        case Opcode::kMax: return a > b ? a : b;
        default: return 0;
    }
}

/// One IR instruction.  Fields that an opcode does not use hold kNoReg/0.
struct Instr {
    Opcode op = Opcode::kNop;
    Reg dst = kNoReg;
    Reg a = kNoReg;
    Reg b = kNoReg;
    Reg c = kNoReg;   ///< third source, only kSelect (the condition)
    Word imm = 0;     ///< immediate for kMovImm and the Load/Store offset
    bool secret = false;  ///< taint source: dst carries secret data from here
};

/// Mnemonic for diagnostics and the IR printer.
[[nodiscard]] std::string_view opcode_name(Opcode op);

/// True for opcodes that write `dst`.
[[nodiscard]] constexpr bool writes_dst(Opcode op) {
    return op != Opcode::kNop && op != Opcode::kStore;
}

/// True for opcodes that read operand `a` / `b` / `c`.
[[nodiscard]] constexpr bool reads_a(Opcode op) {
    return op != Opcode::kNop && op != Opcode::kMovImm;
}
[[nodiscard]] constexpr bool reads_b(Opcode op) {
    switch (op) {
        case Opcode::kNop:
        case Opcode::kMovImm:
        case Opcode::kMov:
        case Opcode::kNot:
        case Opcode::kNeg:
        case Opcode::kAbs:
        case Opcode::kPopcnt:
        case Opcode::kLoad:
            return false;
        default:
            return true;
    }
}
[[nodiscard]] constexpr bool reads_c(Opcode op) {
    return op == Opcode::kSelect;
}

/// True for the pure register-to-register computations (no memory access),
/// the set the security optimiser may freely duplicate when ladderising.
[[nodiscard]] constexpr bool is_pure(Opcode op) {
    return op != Opcode::kLoad && op != Opcode::kStore;
}

}  // namespace teamplay::ir
