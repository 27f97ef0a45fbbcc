// Unit tests for the structured IR: builder, clone, printer, validation.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/validate.hpp"

namespace {

using namespace teamplay;

ir::Program single(ir::Function fn) {
    ir::Program program;
    program.add(std::move(fn));
    return program;
}

TEST(IrBuilder, StraightLineFunction) {
    ir::FunctionBuilder b("f", 2);
    const auto sum = b.add(b.param(0), b.param(1));
    b.ret(sum);
    const auto fn = b.build();

    EXPECT_EQ(fn.name, "f");
    EXPECT_EQ(fn.param_count, 2);
    EXPECT_GT(fn.reg_count, 2);
    EXPECT_NE(fn.ret_reg, ir::kNoReg);
    ASSERT_NE(fn.body, nullptr);
    EXPECT_EQ(fn.body->kind, ir::NodeKind::kSeq);
}

TEST(IrBuilder, ParamOutOfRangeThrows) {
    ir::FunctionBuilder b("f", 1);
    EXPECT_THROW((void)b.param(1), std::out_of_range);
    EXPECT_THROW((void)b.param(-1), std::out_of_range);
}

TEST(IrBuilder, BuildTwiceThrows) {
    ir::FunctionBuilder b("f", 0);
    (void)b.build();
    EXPECT_THROW((void)b.build(), std::logic_error);
}

TEST(IrBuilder, UnbalancedControlThrows) {
    ir::FunctionBuilder b("f", 0);
    const auto c = b.imm(1);
    b.if_begin(c);
    EXPECT_THROW((void)b.build(), std::logic_error);
}

TEST(IrBuilder, LoopEndWithoutBeginThrows) {
    ir::FunctionBuilder b("f", 0);
    EXPECT_THROW(b.loop_end(), std::logic_error);
}

TEST(IrBuilder, ElseWithoutIfThrows) {
    ir::FunctionBuilder b("f", 0);
    EXPECT_THROW(b.if_else(), std::logic_error);
}

TEST(IrBuilder, LoopBoundDefaultsToTrip) {
    ir::FunctionBuilder b("f", 0);
    (void)b.loop_begin(10);
    b.loop_end();
    const auto fn = b.build();
    const auto& loop = *fn.body->children.at(0);
    EXPECT_EQ(loop.kind, ir::NodeKind::kLoop);
    EXPECT_EQ(loop.trip, 10);
    EXPECT_EQ(loop.bound, 10);
}

TEST(IrBuilder, LoopBoundBelowTripThrows) {
    ir::FunctionBuilder b("f", 0);
    EXPECT_THROW((void)b.loop_begin(10, 5), std::invalid_argument);
}

TEST(IrBuilder, NestedStructuresProduceTree) {
    ir::FunctionBuilder b("f", 1);
    const auto i = b.loop_begin(4);
    const auto cond = b.cmp_lt(i, b.param(0));
    b.if_begin(cond);
    (void)b.add(i, i);
    b.if_else();
    (void)b.sub(i, i);
    b.if_end();
    b.loop_end();
    const auto fn = b.build();

    // One loop, whose body holds the one if and no further loop.
    ASSERT_EQ(fn.body->kind, ir::NodeKind::kSeq);
    ASSERT_EQ(fn.body->children.size(), 1u);
    const auto& loop = *fn.body->children[0];
    ASSERT_EQ(loop.kind, ir::NodeKind::kLoop);
    EXPECT_EQ(loop.bound, 4);
    int branches = 0;
    int loops = 0;
    ir::visit(*loop.body, [&](const ir::Node& node) {
        branches += node.kind == ir::NodeKind::kIf;
        loops += node.kind == ir::NodeKind::kLoop;
    });
    EXPECT_EQ(branches, 1);
    EXPECT_EQ(loops, 0);
}

TEST(IrClone, DeepCopyIsIndependent) {
    ir::FunctionBuilder b("f", 0);
    const auto i = b.loop_begin(3);
    (void)b.add(i, i);
    b.loop_end();
    auto fn = b.build();

    const auto copy = fn.body->clone();
    fn.body->children.clear();
    ASSERT_EQ(copy->children.size(), 1u);
    EXPECT_EQ(copy->children[0]->kind, ir::NodeKind::kLoop);
}

TEST(IrFunctionCopy, CopyConstructorClonesBody) {
    ir::FunctionBuilder b("f", 0);
    (void)b.imm(42);
    const auto fn = b.build();
    const ir::Function copy = fn;  // NOLINT(performance-unnecessary-copy-initialization)
    ASSERT_NE(copy.body, nullptr);
    EXPECT_NE(copy.body.get(), fn.body.get());
    EXPECT_EQ(copy.name, fn.name);
}

TEST(IrValidate, WellFormedProgramHasNoErrors) {
    ir::FunctionBuilder callee("leaf", 1);
    callee.ret(callee.add_imm(callee.param(0), 1));
    ir::FunctionBuilder caller("main", 0);
    const auto v = caller.call("leaf", {caller.imm(41)});
    caller.ret(v);

    ir::Program program;
    program.add(callee.build());
    program.add(caller.build());
    EXPECT_TRUE(ir::validate(program).empty());
}

TEST(IrValidate, UndefinedCalleeReported) {
    ir::FunctionBuilder b("main", 0);
    (void)b.call("missing", {});
    const auto program = single(b.build());
    const auto errors = ir::validate(program);
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors[0].find("missing"), std::string::npos);
}

TEST(IrValidate, ArgumentCountMismatchReported) {
    ir::FunctionBuilder callee("leaf", 2);
    ir::FunctionBuilder caller("main", 0);
    (void)caller.call("leaf", {caller.imm(1)});
    ir::Program program;
    program.add(callee.build());
    program.add(caller.build());
    EXPECT_FALSE(ir::validate(program).empty());
}

TEST(IrValidate, RecursionReported) {
    ir::FunctionBuilder a("a", 0);
    (void)a.call("b", {});
    ir::FunctionBuilder b("b", 0);
    (void)b.call("a", {});
    ir::Program program;
    program.add(a.build());
    program.add(b.build());
    const auto errors = ir::validate(program);
    ASSERT_FALSE(errors.empty());
    bool mentions_recursion = false;
    for (const auto& e : errors)
        if (e.find("recursion") != std::string::npos) mentions_recursion = true;
    EXPECT_TRUE(mentions_recursion);
}

TEST(IrValidate, RegisterOutOfRangeReported) {
    ir::FunctionBuilder b("f", 0);
    (void)b.imm(1);
    auto fn = b.build();
    // Corrupt: reference a register beyond reg_count.
    fn.body->children[0]->instrs.push_back(
        ir::Instr{.op = ir::Opcode::kMov, .dst = 0, .a = 99});
    const auto program = single(std::move(fn));
    EXPECT_FALSE(ir::validate(program).empty());
}

TEST(IrValidate, ValidateOrThrowThrowsOnBadProgram) {
    ir::FunctionBuilder b("main", 0);
    (void)b.call("missing", {});
    const auto program = single(b.build());
    EXPECT_THROW(ir::validate_or_throw(program), std::runtime_error);
}

TEST(IrPrinter, ContainsStructure) {
    ir::FunctionBuilder b("demo", 1);
    const auto i = b.loop_begin(8, 16);
    const auto c = b.cmp_eq(i, b.param(0));
    b.if_begin(c);
    (void)b.secret_imm(0xDEAD);
    b.if_end();
    b.loop_end();
    const auto fn = b.build();
    const auto text = ir::to_string(fn);

    EXPECT_NE(text.find("func demo"), std::string::npos);
    EXPECT_NE(text.find("loop"), std::string::npos);
    EXPECT_NE(text.find("bound=16"), std::string::npos);
    EXPECT_NE(text.find("if"), std::string::npos);
    EXPECT_NE(text.find("; secret"), std::string::npos);
}

TEST(IrInstr, OpcodePredicates) {
    EXPECT_TRUE(ir::writes_dst(ir::Opcode::kAdd));
    EXPECT_FALSE(ir::writes_dst(ir::Opcode::kStore));
    EXPECT_FALSE(ir::writes_dst(ir::Opcode::kNop));
    EXPECT_TRUE(ir::reads_b(ir::Opcode::kAdd));
    EXPECT_FALSE(ir::reads_b(ir::Opcode::kMov));
    EXPECT_TRUE(ir::reads_c(ir::Opcode::kSelect));
    EXPECT_FALSE(ir::is_pure(ir::Opcode::kLoad));
    EXPECT_TRUE(ir::is_pure(ir::Opcode::kAdd));
}

TEST(IrInstr, AllOpcodesHaveNames) {
    for (int i = 0; i < ir::kNumOpcodes; ++i) {
        const auto name = ir::opcode_name(static_cast<ir::Opcode>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
}

}  // namespace
