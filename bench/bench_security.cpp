// Experiment R6 (Sec. IV): "our security approach and tools were validated
// on synthetic benchmarks on the Cortex-M0."
//
// Three classic leaky kernels (square-and-multiply modexp, early-exit
// password compare, secret-indexed table lookup) are measured with the
// indiscernibility-style metrics before and after each SecurityOptimiser
// countermeasure, together with the time/energy overhead each countermeasure
// costs — the ETS trade-off at the heart of the paper.
#include <cstdio>
#include <string_view>

#include "compiler/multi_criteria.hpp"
#include "ir/builder.hpp"
#include "security/leakage.hpp"
#include "security/taint.hpp"
#include "security/transforms.hpp"
#include "sim/machine.hpp"
#include "support/units.hpp"
#include "wcet/analyser.hpp"

using namespace teamplay;

namespace {

/// Square-and-multiply with a secret-dependent multiply (pure arms:
/// ladderisable).
ir::Program modexp_kernel() {
    ir::FunctionBuilder b("k", 1);
    const auto key = b.secret(b.param(0));
    const auto modulus = b.imm(65521);
    const auto acc = b.mov(b.imm(1));
    const auto i = b.loop_begin(8);
    const auto bit = b.band(b.shr(key, i), b.imm(1));
    const auto sq = b.rem(b.mul(acc, acc), modulus);
    b.if_begin(bit);
    b.assign(acc, b.rem(b.mul(sq, b.imm(7)), modulus));
    b.if_else();
    b.assign(acc, b.mov(sq));
    b.if_end();
    b.loop_end();
    b.ret(acc);
    ir::Program program;
    program.add(b.build());
    return program;
}

/// Early-exit password comparison: the expensive digest work continues only
/// while the secret's prefix still matches the stored pattern, so total
/// runtime is proportional to the match length — the classic remote timing
/// leak.
ir::Program password_kernel() {
    ir::FunctionBuilder b("k", 1);
    const auto key = b.secret(b.param(0));
    const auto ok = b.mov(b.imm(1));
    const auto done = b.mov(b.imm(0));
    const auto i = b.loop_begin(8);
    const auto expected = b.band(b.shr(key, i), b.imm(1));
    const auto stored = b.band(b.load(b.and_imm(i, 63)), b.imm(1));
    const auto matches = b.cmp_eq(expected, stored);
    const auto alive = b.band(matches, b.cmp_eq(done, b.imm(0)));
    b.if_begin(alive);
    // Still matching: fold the byte into the expensive running digest.
    b.assign(ok, b.rem(b.mul(ok, b.add_imm(expected, 3)), b.imm(251)));
    b.if_else();
    // Mismatch (or already rejected): bail out cheaply.
    b.assign(ok, b.imm(0));
    b.assign(done, b.imm(1));
    b.if_end();
    b.loop_end();
    b.ret(ok);
    ir::Program program_out;
    program_out.memory_words = 64;
    program_out.add(b.build());
    return program_out;
}

/// Secret-indexed lookup: address leakage (not fixable by ladderisation of
/// branches; reported as residual by the taint analysis).
ir::Program sbox_kernel() {
    ir::Program program;
    program.memory_words = 512;
    ir::FunctionBuilder b("k", 1);
    const auto key = b.secret(b.param(0));
    const auto acc = b.mov(b.imm(0));
    const auto i = b.loop_begin(8);
    const auto index = b.and_imm(b.add(key, i), 255);
    const auto v = b.load(index);
    const auto gated = b.cmp_gt(v, b.imm(100));
    b.if_begin(gated);
    b.assign(acc, b.add(acc, v));
    b.if_else();
    b.assign(acc, b.add(acc, b.imm(1)));
    b.if_end();
    b.loop_end();
    b.ret(acc);
    program.add(b.build());
    return program;
}

struct KernelCase {
    const char* name;
    ir::Program (*make)();
};

constexpr KernelCase kKernels[] = {
    {"modexp", modexp_kernel},
    {"password", password_kernel},
    {"sbox", sbox_kernel},
};

security::SecretRunner runner_for(const ir::Program& program) {
    static const platform::Platform nucleo = platform::nucleo_f091();
    return [&program](ir::Word secret) {
        sim::Machine machine(program, nucleo.cores[0], 0);
        // Memory contents for the password/sbox kernels.
        for (std::size_t a = 0; a < 64; ++a)
            machine.poke(a, static_cast<ir::Word>(a * 37 % 251));
        return machine.run("k", std::vector<ir::Word>{secret},
                           /*record_trace=*/true);
    };
}

void print_table() {
    static const platform::Platform nucleo = platform::nucleo_f091();

    std::puts(
        "=== R6: side-channel metrics on Cortex-M0 synthetic kernels ===");
    std::printf("%-10s %-10s %10s %10s %10s %12s %10s\n", "kernel",
                "variant", "t-MI[b]", "t-spread", "p-|t|", "WCET",
                "proxy");
    for (const auto& kernel : kKernels) {
        for (const auto* variant : {"original", "balanced", "laddered"}) {
            auto program = kernel.make();
            auto& fn = *program.find("k");
            if (std::string_view(variant) == "balanced")
                security::balance_secret_branches(program, fn);
            else if (std::string_view(variant) == "laddered")
                security::ladderise(program, fn);

            const auto leak = security::measure_leakage(
                runner_for(program), 150, 8, 23);
            const auto taint = security::analyze_taint(program, fn);
            const wcet::Analyser analyser(program);
            const auto wcet = analyser.analyse("k", nucleo.cores[0], 0);
            std::printf("%-10s %-10s %10.3f %10.1f %10.1f %12s %10.1f\n",
                        kernel.name, variant, leak.timing_mi_bits,
                        leak.timing_spread_cycles, leak.power_max_t,
                        support::format_time(wcet.time_s).c_str(),
                        taint.leakage_proxy());
        }
    }
    std::puts(
        "\npaper:    countermeasures remove timing leakage at bounded "
        "ETS cost;\n          metrics are attack-agnostic "
        "(indiscernibility methodology)\nmeasured: timing MI/spread "
        "collapse to 0 for balanced/laddered variants;\n          "
        "residual power leakage and the sbox address leak remain visible "
        "in\n          the static proxy, as expected for first-order "
        "countermeasures\n");
}

}  // namespace

int main() {
    print_table();
    return 0;
}
