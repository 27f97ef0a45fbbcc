#include "compiler/passes.hpp"

#include <map>
#include <optional>
#include <set>

namespace teamplay::compiler {

namespace {

using ir::Instr;
using ir::Opcode;
using ir::Reg;
using ir::Word;

bool is_binop(Opcode op) {
    return ir::reads_a(op) && ir::reads_b(op) && op != Opcode::kStore &&
           op != Opcode::kSelect;
}

/// The ops ir::eval_unary evaluates: kMov, kNot, kNeg, kAbs, kPopcnt.
bool is_unop(Opcode op) {
    return ir::is_pure(op) && ir::reads_a(op) && !ir::reads_b(op);
}

}  // namespace

int constant_fold(ir::Function& fn) {
    int folded = 0;
    ir::visit(*fn.body, [&folded](ir::Node& node) {
        if (node.kind != ir::NodeKind::kBlock) return;
        std::map<Reg, Word> consts;  // per-block, conservatively reset
        for (auto& instr : node.instrs) {
            const auto known = [&consts](Reg r) {
                return consts.find(r) != consts.end();
            };
            std::optional<Word> value;
            switch (instr.op) {
                case Opcode::kMovImm:
                    value = instr.imm;
                    break;
                case Opcode::kSelect:
                    if (known(instr.a) && known(instr.b) && known(instr.c)) {
                        value = consts[instr.c] != 0 ? consts[instr.a]
                                                     : consts[instr.b];
                        instr = Instr{.op = Opcode::kMovImm, .dst = instr.dst,
                                      .imm = *value, .secret = instr.secret};
                        ++folded;
                    }
                    break;
                default:
                    if (is_binop(instr.op) && known(instr.a) &&
                        known(instr.b)) {
                        value = ir::eval_binary(instr.op, consts[instr.a],
                                                consts[instr.b]);
                        instr = Instr{.op = Opcode::kMovImm, .dst = instr.dst,
                                      .imm = *value, .secret = instr.secret};
                        ++folded;
                    } else if (is_unop(instr.op) && known(instr.a)) {
                        value = ir::eval_unary(instr.op, consts[instr.a]);
                        const bool was_mov = instr.op == Opcode::kMov;
                        instr = Instr{.op = Opcode::kMovImm, .dst = instr.dst,
                                      .imm = *value, .secret = instr.secret};
                        if (!was_mov) ++folded;
                    }
                    break;
            }
            if (ir::writes_dst(instr.op) && instr.dst != ir::kNoReg) {
                if (value) {
                    consts[instr.dst] = *value;
                } else {
                    consts.erase(instr.dst);
                }
            }
        }
    });
    return folded;
}

int cse(ir::Function& fn) {
    int replaced = 0;
    ir::visit(*fn.body, [&replaced](ir::Node& node) {
        if (node.kind != ir::NodeKind::kBlock) return;

        // Registers defined more than once in the block cannot take part
        // (their value is position-dependent).
        std::map<Reg, int> def_count;
        for (const auto& instr : node.instrs)
            if (ir::writes_dst(instr.op) && instr.dst != ir::kNoReg)
                ++def_count[instr.dst];
        const auto single_def = [&def_count](Reg r) {
            const auto it = def_count.find(r);
            return it == def_count.end() || it->second == 1;
        };

        struct Key {
            Opcode op;
            Reg a, b, c;
            Word imm;
            auto operator<=>(const Key&) const = default;
        };
        std::map<Key, Reg> available;
        for (auto& instr : node.instrs) {
            if (!ir::is_pure(instr.op) || !ir::writes_dst(instr.op) ||
                instr.op == Opcode::kMov || instr.op == Opcode::kNop ||
                instr.secret)
                continue;
            if ((ir::reads_a(instr.op) && !single_def(instr.a)) ||
                (ir::reads_b(instr.op) && !single_def(instr.b)) ||
                (ir::reads_c(instr.op) && !single_def(instr.c)) ||
                !single_def(instr.dst))
                continue;
            const Key key{instr.op, ir::reads_a(instr.op) ? instr.a : ir::kNoReg,
                          ir::reads_b(instr.op) ? instr.b : ir::kNoReg,
                          ir::reads_c(instr.op) ? instr.c : ir::kNoReg,
                          instr.op == Opcode::kMovImm ? instr.imm : 0};
            const auto it = available.find(key);
            if (it != available.end() && it->second != instr.dst) {
                instr = Instr{.op = Opcode::kMov, .dst = instr.dst,
                              .a = it->second};
                ++replaced;
            } else {
                available.emplace(key, instr.dst);
            }
        }
    });
    return replaced;
}

int strength_reduce(ir::Function& fn, const isa::TargetModel& model) {
    int rewritten = 0;
    const double mul_cost = model.energy_of(isa::InstrClass::kMul);
    const double alu_cost = model.energy_of(isa::InstrClass::kAlu);
    const double div_cycles = model.cycles_of(isa::InstrClass::kDiv);
    const double alu_cycles = model.cycles_of(isa::InstrClass::kAlu);

    ir::visit(*fn.body, [&](ir::Node& node) {
        if (node.kind != ir::NodeKind::kBlock) return;
        std::map<Reg, Word> consts;
        for (auto& instr : node.instrs) {
            // Track constants for operand lookup.
            if (instr.op == Opcode::kMovImm) consts[instr.dst] = instr.imm;

            const auto const_of = [&consts](Reg r) -> std::optional<Word> {
                const auto it = consts.find(r);
                if (it == consts.end()) return std::nullopt;
                return it->second;
            };

            if (instr.op == Opcode::kMul) {
                const auto cb = const_of(instr.b);
                const auto ca = const_of(instr.a);
                const Reg var = cb ? instr.a : instr.b;
                const std::optional<Word> k = cb ? cb : ca;
                if (k) {
                    if (*k == 0) {
                        instr = Instr{.op = Opcode::kMovImm, .dst = instr.dst,
                                      .imm = 0};
                        ++rewritten;
                    } else if (*k == 1) {
                        instr = Instr{.op = Opcode::kMov, .dst = instr.dst,
                                      .a = var};
                        ++rewritten;
                    } else if (*k == 2 && mul_cost > alu_cost) {
                        instr = Instr{.op = Opcode::kAdd, .dst = instr.dst,
                                      .a = var, .b = var};
                        ++rewritten;
                    }
                }
            } else if (instr.op == Opcode::kDiv) {
                const auto cb = const_of(instr.b);
                if (cb && *cb == 1 && div_cycles > alu_cycles) {
                    instr = Instr{.op = Opcode::kMov, .dst = instr.dst,
                                  .a = instr.a};
                    ++rewritten;
                }
            } else if (instr.op == Opcode::kRem) {
                const auto cb = const_of(instr.b);
                if (cb && *cb == 1) {
                    instr = Instr{.op = Opcode::kMovImm, .dst = instr.dst,
                                  .imm = 0};
                    ++rewritten;
                }
            }

            if (ir::writes_dst(instr.op) && instr.dst != ir::kNoReg &&
                instr.op != Opcode::kMovImm)
                consts.erase(instr.dst);
        }
    });
    return rewritten;
}

int dce(ir::Function& fn) {
    int removed_total = 0;
    for (;;) {
        // Whole-function read set.
        std::set<Reg> read;
        if (fn.ret_reg != ir::kNoReg) read.insert(fn.ret_reg);
        ir::visit(*fn.body, [&read](const ir::Node& node) {
            switch (node.kind) {
                case ir::NodeKind::kBlock:
                    for (const auto& instr : node.instrs) {
                        if (ir::reads_a(instr.op)) read.insert(instr.a);
                        if (ir::reads_b(instr.op)) read.insert(instr.b);
                        if (ir::reads_c(instr.op)) read.insert(instr.c);
                    }
                    break;
                case ir::NodeKind::kIf:
                    read.insert(node.cond);
                    break;
                case ir::NodeKind::kLoop:
                    if (node.trip_reg != ir::kNoReg)
                        read.insert(node.trip_reg);
                    break;
                case ir::NodeKind::kCall:
                    for (const Reg arg : node.args) read.insert(arg);
                    break;
                default:
                    break;
            }
        });

        int removed = 0;
        ir::visit(*fn.body, [&read, &removed](ir::Node& node) {
            if (node.kind != ir::NodeKind::kBlock) return;
            auto& instrs = node.instrs;
            const auto is_dead = [&read](const Instr& instr) {
                return ir::is_pure(instr.op) && ir::writes_dst(instr.op) &&
                       instr.dst != ir::kNoReg && !read.contains(instr.dst);
            };
            const auto before = instrs.size();
            std::erase_if(instrs, is_dead);
            removed += static_cast<int>(before - instrs.size());
        });
        removed_total += removed;
        if (removed == 0) break;
    }
    return removed_total;
}

namespace {

/// Def counts over a whole function (for single-definition checks).
std::map<Reg, int> def_counts(const ir::Function& fn) {
    std::map<Reg, int> counts;
    ir::visit(*fn.body, [&counts](const ir::Node& node) {
        switch (node.kind) {
            case ir::NodeKind::kBlock:
                for (const auto& instr : node.instrs)
                    if (ir::writes_dst(instr.op) && instr.dst != ir::kNoReg)
                        ++counts[instr.dst];
                break;
            case ir::NodeKind::kLoop:
                if (node.index_reg != ir::kNoReg) ++counts[node.index_reg];
                break;
            case ir::NodeKind::kCall:
                if (node.ret != ir::kNoReg) ++counts[node.ret];
                break;
            default:
                break;
        }
    });
    return counts;
}

/// Pull hoistable kMovImm instructions out of `node` (recursively), given
/// the single-def register set.  Collected instructions are appended to
/// `hoisted` in program order.
void extract_constants(ir::Node& node, const std::map<Reg, int>& defs,
                       std::vector<Instr>& hoisted) {
    ir::visit(node, [&](ir::Node& n) {
        if (n.kind != ir::NodeKind::kBlock) return;
        auto& instrs = n.instrs;
        auto keep = instrs.begin();
        for (auto it = instrs.begin(); it != instrs.end(); ++it) {
            const bool hoistable =
                it->op == Opcode::kMovImm && it->dst != ir::kNoReg &&
                !it->secret && defs.count(it->dst) != 0 &&
                defs.at(it->dst) == 1;
            if (hoistable) {
                hoisted.push_back(*it);
            } else {
                *keep++ = *it;
            }
        }
        instrs.erase(keep, instrs.end());
    });
}

/// Recursive LICM over a region: loops found under `node` get their
/// single-def constants moved into a prelude block inserted before them in
/// the surrounding Seq.
int hoist_in_children(ir::Node& node, const std::map<Reg, int>& defs) {
    int hoisted_total = 0;
    if (node.kind == ir::NodeKind::kSeq) {
        for (std::size_t i = 0; i < node.children.size(); ++i) {
            ir::Node& child = *node.children[i];
            if (child.kind == ir::NodeKind::kLoop) {
                std::vector<Instr> hoisted;
                extract_constants(*child.body, defs, hoisted);
                hoisted_total += static_cast<int>(hoisted.size());
                if (!hoisted.empty()) {
                    node.children.insert(
                        node.children.begin() +
                            static_cast<std::ptrdiff_t>(i),
                        ir::Node::block(std::move(hoisted)));
                    ++i;  // skip the prelude we just inserted
                }
            } else {
                hoisted_total += hoist_in_children(child, defs);
            }
        }
    } else {
        if (node.then_branch)
            hoisted_total += hoist_in_children(*node.then_branch, defs);
        if (node.else_branch)
            hoisted_total += hoist_in_children(*node.else_branch, defs);
        if (node.body) hoisted_total += hoist_in_children(*node.body, defs);
    }
    return hoisted_total;
}

/// The only genuine unrolling hazard on this IR: a body that writes the
/// loop's own index register (the replicas' remapped index chain would be
/// clobbered).  Loop-carried *data* registers are safe: replicating the
/// body f times executes exactly the same iteration sequence, so register
/// and memory state flow identically to the rolled loop.
bool body_writes_index(const ir::Node& body, Reg index_reg) {
    if (index_reg == ir::kNoReg) return false;
    bool writes = false;
    ir::visit(body, [&](const ir::Node& node) {
        switch (node.kind) {
            case ir::NodeKind::kBlock:
                for (const auto& instr : node.instrs)
                    if (ir::writes_dst(instr.op) && instr.dst == index_reg)
                        writes = true;
                break;
            case ir::NodeKind::kLoop:
                if (node.index_reg == index_reg) writes = true;
                break;
            case ir::NodeKind::kCall:
                if (node.ret == index_reg) writes = true;
                break;
            default:
                break;
        }
    });
    return writes;
}

/// Remap reads of `from` to `to` throughout a cloned replica body.
void remap_reads(ir::Node& node, Reg from, Reg to) {
    ir::visit(node, [from, to](ir::Node& n) {
        switch (n.kind) {
            case ir::NodeKind::kBlock:
                for (auto& instr : n.instrs) {
                    if (ir::reads_a(instr.op) && instr.a == from)
                        instr.a = to;
                    if (ir::reads_b(instr.op) && instr.b == from)
                        instr.b = to;
                    if (ir::reads_c(instr.op) && instr.c == from)
                        instr.c = to;
                }
                break;
            case ir::NodeKind::kIf:
                if (n.cond == from) n.cond = to;
                break;
            case ir::NodeKind::kLoop:
                if (n.trip_reg == from) n.trip_reg = to;
                break;
            case ir::NodeKind::kCall:
                for (auto& arg : n.args)
                    if (arg == from) arg = to;
                break;
            default:
                break;
        }
    });
}

}  // namespace

int hoist_loop_constants(ir::Function& fn) {
    const auto defs = def_counts(fn);
    return hoist_in_children(*fn.body, defs);
}

int unroll_loops(ir::Function& fn, int factor) {
    if (factor < 2) return 0;
    int unrolled = 0;
    int next_reg = fn.reg_count;

    ir::visit(*fn.body, [&](ir::Node& node) {
        if (node.kind != ir::NodeKind::kLoop) return;
        if (node.trip_reg != ir::kNoReg) return;  // dynamic trip: skip
        if (node.trip <= 0 || node.trip % factor != 0) return;
        // Innermost loops only: unrolling an outer loop would replicate the
        // nest and explode code size for little overhead saved.
        bool has_inner_loop = false;
        ir::visit(*node.body, [&has_inner_loop](const ir::Node& inner) {
            if (inner.kind == ir::NodeKind::kLoop) has_inner_loop = true;
        });
        if (has_inner_loop) return;
        if (body_writes_index(*node.body, node.index_reg)) return;

        // One stride constant per unrolled iteration, then chained index
        // increments: idx_k = idx_{k-1} + stride.  Cost per unrolled
        // iteration: 1 move + (factor-1) adds, against (factor-1) saved
        // loop-overhead charges.
        std::vector<ir::NodePtr> replicas;
        replicas.reserve(static_cast<std::size_t>(factor) + 1);
        const Reg stride_reg = next_reg++;
        if (node.index_reg != ir::kNoReg) {
            std::vector<Instr> prelude;
            prelude.push_back(Instr{.op = Opcode::kMovImm, .dst = stride_reg,
                                    .imm = node.stride});
            replicas.push_back(ir::Node::block(std::move(prelude)));
        }
        Reg prev_index = node.index_reg;
        for (int k = 0; k < factor; ++k) {
            auto replica = node.body->clone();
            if (k > 0 && node.index_reg != ir::kNoReg) {
                const Reg idx_k = next_reg++;
                remap_reads(*replica, node.index_reg, idx_k);
                std::vector<Instr> step;
                step.push_back(Instr{.op = Opcode::kAdd, .dst = idx_k,
                                     .a = prev_index, .b = stride_reg});
                std::vector<ir::NodePtr> seq;
                seq.push_back(ir::Node::block(std::move(step)));
                seq.push_back(std::move(replica));
                replica = ir::Node::seq(std::move(seq));
                prev_index = idx_k;
            }
            replicas.push_back(std::move(replica));
        }
        node.body = ir::Node::seq(std::move(replicas));
        node.trip /= factor;
        node.bound = node.trip;
        node.stride *= factor;
        ++unrolled;
    });
    fn.reg_count = next_reg;
    return unrolled;
}

namespace {

/// Offset every register reference in a cloned callee body by `base`.
void offset_regs(ir::Node& node, int base) {
    ir::visit(node, [base](ir::Node& n) {
        const auto shift = [base](Reg& r) {
            if (r != ir::kNoReg) r += base;
        };
        switch (n.kind) {
            case ir::NodeKind::kBlock:
                for (auto& instr : n.instrs) {
                    if (ir::writes_dst(instr.op)) shift(instr.dst);
                    if (ir::reads_a(instr.op)) shift(instr.a);
                    if (ir::reads_b(instr.op)) shift(instr.b);
                    if (ir::reads_c(instr.op)) shift(instr.c);
                }
                break;
            case ir::NodeKind::kIf:
                shift(n.cond);
                break;
            case ir::NodeKind::kLoop:
                shift(n.trip_reg);
                shift(n.index_reg);
                break;
            case ir::NodeKind::kCall:
                for (auto& arg : n.args) shift(arg);
                shift(n.ret);
                break;
            default:
                break;
        }
    });
}

}  // namespace

int inline_calls(const ir::Program& program, ir::Function& fn,
                 int max_callee_instrs) {
    int inlined = 0;
    ir::visit(*fn.body, [&](ir::Node& node) {
        if (node.kind != ir::NodeKind::kCall) return;
        const ir::Function* callee = program.find(node.callee);
        if (callee == nullptr || !callee->body) return;
        if (max_callee_instrs >= 0) {
            int instrs = 0;
            ir::for_each_instr(*callee->body,
                               [&instrs](const Instr&) { ++instrs; });
            if (instrs > max_callee_instrs) return;
        }

        const int base = fn.reg_count;
        auto body = callee->body->clone();
        offset_regs(*body, base);

        std::vector<Instr> arg_moves;
        for (std::size_t i = 0; i < node.args.size(); ++i)
            arg_moves.push_back(Instr{.op = Opcode::kMov,
                                      .dst = static_cast<Reg>(base) +
                                             static_cast<Reg>(i),
                                      .a = node.args[i]});
        std::vector<ir::NodePtr> seq;
        if (!arg_moves.empty())
            seq.push_back(ir::Node::block(std::move(arg_moves)));
        seq.push_back(std::move(body));
        if (node.ret != ir::kNoReg && callee->ret_reg != ir::kNoReg) {
            std::vector<Instr> ret_move;
            ret_move.push_back(Instr{.op = Opcode::kMov, .dst = node.ret,
                                     .a = callee->ret_reg + base});
            seq.push_back(ir::Node::block(std::move(ret_move)));
        }

        fn.reg_count += callee->reg_count;
        node.kind = ir::NodeKind::kSeq;
        node.children = std::move(seq);
        node.callee.clear();
        node.args.clear();
        node.ret = ir::kNoReg;
        ++inlined;
    });
    return inlined;
}

}  // namespace teamplay::compiler
