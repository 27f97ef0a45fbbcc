// Canonical structural fingerprint (ir/fingerprint.hpp): rename/label
// insensitivity, mutation sensitivity, the documented load-bearing fields
// (callee names, memory size), the pinned values of every use-case
// function, program and core model, and the end-to-end consequence — two
// applications embedding the same kernel share evaluation-cache entries
// without changing a single certificate byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_engine.hpp"
#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "ir/program.hpp"
#include "sim/trace.hpp"
#include "usecases/apps.hpp"
#include "usecases/kernels.hpp"

namespace {

using namespace teamplay;

/// A representative kernel: loop + branch + call + secret data.
ir::Function make_kernel(const std::string& name,
                         const std::string& helper) {
    ir::FunctionBuilder b(name, 2);
    const auto base = b.param(0);
    const auto key = b.secret(b.param(1));
    auto acc = b.imm(0);
    const auto index = b.loop_begin(8);
    const auto word = b.load(b.add(base, index), 4);
    const auto mixed = b.call(helper, {word, key});
    const auto odd = b.and_imm(mixed, 1);
    b.if_begin(odd);
    b.store(base, mixed, 16);
    b.if_else();
    b.store(base, acc, 17);
    b.if_end();
    b.assign(acc, b.bxor(acc, mixed));
    b.loop_end();
    b.ret(acc);
    return b.build();
}

ir::Function make_helper(const std::string& name) {
    ir::FunctionBuilder b(name, 2);
    b.ret(b.add(b.mul_imm(b.param(0), 31), b.param(1)));
    return b.build();
}

ir::Program make_program(const std::string& entry,
                         const std::string& helper) {
    ir::Program program;
    program.memory_words = 4096;
    program.add(make_kernel(entry, helper));
    program.add(make_helper(helper));
    return program;
}

/// Apply a register renaming to every register slot of a function.
template <typename Fn>
void remap_registers(ir::Function& fn, Fn&& map) {
    fn.ret_reg = map(fn.ret_reg);
    ir::visit(*fn.body, [&map](ir::Node& node) {
        node.cond = map(node.cond);
        node.trip_reg = map(node.trip_reg);
        node.index_reg = map(node.index_reg);
        node.ret = map(node.ret);
        for (auto& arg : node.args) arg = map(arg);
        for (auto& instr : node.instrs) {
            instr.dst = map(instr.dst);
            instr.a = map(instr.a);
            instr.b = map(instr.b);
            instr.c = map(instr.c);
        }
    });
}

std::uint64_t fp(const ir::Program& program, const std::string& entry) {
    return ir::structural_fingerprint(program, entry);
}

// -- canonicalisation ---------------------------------------------------------

TEST(StructuralFingerprint, IgnoresUnrelatedFunctionsInTheProgram) {
    auto lean = make_program("kernel", "helper");
    auto fat = make_program("kernel", "helper");
    fat.add(make_helper("unrelated_extra"));
    EXPECT_EQ(fp(lean, "kernel"), fp(fat, "kernel"));
}

TEST(StructuralFingerprint, AlphaRenamedRegistersCollide) {
    const auto original = make_program("kernel", "helper");
    auto renamed = make_program("kernel", "helper");
    auto* kernel = renamed.find("kernel");
    // Shift every non-parameter register up by 11: a semantics-preserving
    // alpha-renaming of the temporaries.
    remap_registers(*kernel, [&](ir::Reg reg) {
        if (reg == ir::kNoReg || reg < kernel->param_count) return reg;
        return static_cast<ir::Reg>(reg + 11);
    });
    kernel->reg_count += 11;
    EXPECT_EQ(fp(original, "kernel"), fp(renamed, "kernel"));
}

TEST(StructuralFingerprint, RelabelledEntryCollides) {
    const auto original = make_program("kernel", "helper");
    auto relabelled = make_program("kernel", "helper");
    auto renamed = *relabelled.find("kernel");
    renamed.name = "kernel_v2";
    relabelled.functions.erase("kernel");
    relabelled.add(std::move(renamed));
    EXPECT_EQ(fp(original, "kernel"), fp(relabelled, "kernel_v2"));
}

TEST(StructuralFingerprint, ParameterRegistersArePinned) {
    // f(a, b) = a - b and f(a, b) = b - a are different functions even
    // though a blind renaming maps one onto the other: parameters are
    // positional, so the canonicaliser must not erase their identity.
    ir::FunctionBuilder lhs("f", 2);
    lhs.ret(lhs.sub(lhs.param(0), lhs.param(1)));
    ir::FunctionBuilder rhs("f", 2);
    rhs.ret(rhs.sub(rhs.param(1), rhs.param(0)));
    ir::Program a;
    a.add(lhs.build());
    ir::Program b;
    b.add(rhs.build());
    EXPECT_NE(fp(a, "f"), fp(b, "f"));
}

// -- mutation sensitivity -----------------------------------------------------

TEST(StructuralFingerprint, OneInstructionMutationDiffers) {
    const auto original = make_program("kernel", "helper");

    auto imm_mutant = make_program("kernel", "helper");
    ir::for_each_instr(*imm_mutant.find("kernel")->body,
                       [mutated = false](ir::Instr& instr) mutable {
                           if (!mutated && instr.op == ir::Opcode::kLoad) {
                               instr.imm += 1;
                               mutated = true;
                           }
                       });
    EXPECT_NE(fp(original, "kernel"), fp(imm_mutant, "kernel"));

    auto op_mutant = make_program("kernel", "helper");
    ir::for_each_instr(*op_mutant.find("helper")->body,
                       [](ir::Instr& instr) {
                           if (instr.op == ir::Opcode::kAdd)
                               instr.op = ir::Opcode::kSub;
                       });
    EXPECT_NE(fp(original, "kernel"), fp(op_mutant, "kernel"));

    auto secret_mutant = make_program("kernel", "helper");
    ir::for_each_instr(*secret_mutant.find("kernel")->body,
                       [](ir::Instr& instr) { instr.secret = false; });
    EXPECT_NE(fp(original, "kernel"), fp(secret_mutant, "kernel"));
}

TEST(StructuralFingerprint, LoopBoundParticipates) {
    auto original = make_program("kernel", "helper");
    auto mutant = make_program("kernel", "helper");
    ir::visit(*mutant.find("kernel")->body, [](ir::Node& node) {
        if (node.kind == ir::NodeKind::kLoop) node.bound += 1;
    });
    EXPECT_NE(fp(original, "kernel"), fp(mutant, "kernel"));
}

// -- documented load-bearing fields ------------------------------------------

TEST(StructuralFingerprint, CalleeNamesAreLoadBearing) {
    // Certificate proofs print "call <name>" notes, so kernels that differ
    // only in a helper's label must not share cached analysis results.
    const auto original = make_program("kernel", "helper");
    const auto renamed_callee = make_program("kernel", "helper_v2");
    EXPECT_NE(fp(original, "kernel"), fp(renamed_callee, "kernel"));
}

TEST(StructuralFingerprint, MemoryWordsAreLoadBearing) {
    const auto original = make_program("kernel", "helper");
    auto resized = make_program("kernel", "helper");
    resized.memory_words *= 2;
    EXPECT_NE(fp(original, "kernel"), fp(resized, "kernel"));
}

TEST(StructuralFingerprint, MissingEntryHashesWithoutThrowing) {
    const auto program = make_program("kernel", "helper");
    const auto unresolved = fp(program, "absent");
    EXPECT_NE(unresolved, fp(program, "kernel"));
    EXPECT_NE(unresolved, fp(program, "also_absent"));
}

// -- pinned values ------------------------------------------------------------

// Every function of the ten use-case apps, each app's whole program and
// each core's cost model.  Result-store keys fold the structural
// fingerprints and the cost-model fields in, so a store written by an
// earlier build stays warm only while these hold.
TEST(PinnedFingerprints, UseCaseValuesNeverMove) {
    const std::map<std::string, std::uint64_t> structural = {
        {"park_capture", 0xc0e31c2d92cc304fULL},
        {"park_conv", 0x1f9cc8d8bbf5678bULL},
        {"park_decide", 0xe53546fa509b213eULL},
        {"park_fc1", 0xefc8485de4e85130ULL},
        {"park_fc2", 0x29c91dfeb4adca2dULL},
        {"park_pool", 0x92433fd1fda9fc8bULL},
        {"pill_capture", 0xee907977fcb40d9fULL},
        {"pill_compress", 0x1c22ce8162e6419bULL},
        {"pill_delta", 0x490f39ce4145a876ULL},
        {"pill_encrypt", 0x7e9e31c39984717aULL},
        {"pill_transmit", 0x82c190e5929eab34ULL},
        {"pill_xtea_block", 0x30b21bed8622e52fULL},
        {"pill_xtea_unblock", 0x0e08ac5836066b00ULL},
        {"rover_log", 0xed29ce6db438f104ULL},
        {"rover_map", 0x9a5ee12481d806a7ULL},
        {"sw_acquire", 0xc1dfaacc85c41c9fULL},
        {"sw_bin", 0x97ac2f9ae6fea8cdULL},
        {"sw_compress", 0x415661f684176fb7ULL},
        {"sw_crc", 0xd239483646a0e7b3ULL},
        {"sw_packetize", 0x00f2b0cbf9e27007ULL},
        {"sw_sensor", 0x7d054a60d1406b35ULL},
        {"sw_tele_len", 0xa44950ef8d6aeacdULL},
        {"sw_telemetry", 0x40bcba9e57ea2acbULL},
        {"sw_transmit", 0x79df9067d6e99ecfULL},
        {"uav_capture", 0x41059e411a74a31fULL},
        {"uav_detect", 0x4c64c526ccb7f419ULL},
        {"uav_downlink", 0xa7ae0815dba79e94ULL},
        {"uav_encode", 0x092658cf62b0a690ULL},
        {"uav_resize", 0x4a16e3b42bca82f5ULL},
        {"uav_track", 0x35f3e9877f2982f2ULL},
    };
    const std::map<std::string, std::uint64_t> whole_program = {
        {"camera_pill", 0x38b4430bf765d4edULL},
        {"parking_cnn", 0x97a3bd3c37b58502ULL},
        {"rover_inspect", 0x29d507aad84fd1c1ULL},
        {"spacewire_downlink", 0xc4c003615ec202bcULL},
        {"uav_detection", 0x8f1e8a1a1fefafbdULL},
    };
    const std::map<std::string, std::uint64_t> model = {
        {"cortex-a15", 0x43ed099da321d894ULL},
        {"cortex-a57", 0x601534a2165e636cULL},
        {"cortex-m0", 0xf2eb20dfe6960a8dULL},
        {"denver2", 0x1230714055327e04ULL},
        {"gpu-sm", 0xea028961fe5f7d79ULL},
        {"leon3ft", 0xfff2dc097ef91d28ULL},
        {"pill-fpga", 0xabe1225b490663faULL},
    };

    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_space_app());
    for (const char* board : {"apalis-tk1", "jetson-tx2", "jetson-nano"}) {
        apps.push_back(usecases::make_uav_app(board));
        apps.push_back(usecases::make_rover_app(board));
    }
    apps.push_back(usecases::make_parking_app(true));
    apps.push_back(usecases::make_parking_app(false));

    for (const auto& app : apps) {
        SCOPED_TRACE(app.name + " on " + app.platform.name);
        EXPECT_EQ(core::fingerprint_program(app.program),
                  whole_program.at(app.name));
        for (const auto& [name, function] : app.program.functions)
            EXPECT_EQ(fp(app.program, name), structural.at(name)) << name;
        for (const auto& core : app.platform.cores)
            EXPECT_EQ(sim::model_fingerprint(core.model),
                      model.at(core.model.name))
                << core.name;
    }
    EXPECT_EQ(fp(apps.front().program, "no_such_function"),
              0x957d7c8a19e382d6ULL);
}

// -- end-to-end: cross-program memoisation ------------------------------------

core::WorkflowOptions fast_options() {
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal_iterations = 60;
    return options;
}

core::ScenarioRequest request_for(const usecases::UseCaseApp& app) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options = fast_options();
    request.label = app.name;
    return request;
}

TEST(CrossProgramMemoisation, SharedKernelsHitAcrossApps) {
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const auto rover = usecases::make_rover_app("apalis-tk1");

    // The shared perception kernels really are structurally identical
    // across the two programs (different whole-program content).
    for (const char* entry : {"uav_capture", "uav_resize", "uav_detect"})
        EXPECT_EQ(fp(uav.program, entry), fp(rover.program, entry))
            << entry;
    EXPECT_NE(core::fingerprint_program(uav.program),
              core::fingerprint_program(rover.program));

    // Isolated baselines: every key misses once per app.
    core::ScenarioEngine uav_engine;
    const auto uav_report = uav_engine.run(request_for(uav));
    const auto uav_misses = uav_engine.cache_stats().misses;

    core::ScenarioEngine rover_engine;
    const auto rover_report = rover_engine.run(request_for(rover));
    const auto rover_misses = rover_engine.cache_stats().misses;

    // Shared engine: the rover re-uses every evaluation of the kernels the
    // UAV already analysed — strictly fewer misses, at least one hit from
    // a key the *other* program created.
    core::ScenarioEngine shared;
    const auto uav_joint = shared.run(request_for(uav));
    const auto misses_after_uav = shared.cache_stats().misses;
    EXPECT_EQ(misses_after_uav, uav_misses);
    const auto rover_joint = shared.run(request_for(rover));
    const auto rover_joint_misses =
        shared.cache_stats().misses - misses_after_uav;
    EXPECT_LT(rover_joint_misses, rover_misses);

    // Cross-program serving changes no output byte.
    EXPECT_EQ(uav_joint.certificate.to_text(),
              uav_report.certificate.to_text());
    EXPECT_EQ(rover_joint.certificate.to_text(),
              rover_report.certificate.to_text());
    EXPECT_EQ(rover_joint.summary(), rover_report.summary());
}

TEST(CrossProgramMemoisation, CompiledFrontSharedAcrossPrograms) {
    // Predictable-flow variant ("one front compiled"): two synthetic apps
    // on the same predictable board embed the same kernel next to
    // different siblings; the second scenario's front is a pure cache hit.
    const auto pill = usecases::make_camera_pill_app();

    ir::Program app_a;
    app_a.memory_words = 4096;
    app_a.add(make_kernel("shared_kernel", "shared_helper"));
    app_a.add(make_helper("shared_helper"));
    app_a.add(make_helper("a_only"));

    ir::Program app_b;
    app_b.memory_words = 4096;
    app_b.add(make_kernel("shared_kernel", "shared_helper"));
    app_b.add(make_helper("shared_helper"));
    app_b.add(make_kernel("b_only", "shared_helper"));

    const std::string csl =
        "app shared_kernel_app on " + pill.platform.name +
        " deadline 500ms {\n"
        "  task main { entry shared_kernel; period 500ms; deadline 400ms;"
        " core_class mcu; }\n"
        "}\n";

    core::ScenarioEngine engine;
    core::ScenarioRequest request;
    request.platform = &pill.platform;
    request.csl_source = csl;
    request.options = fast_options();

    request.program = &app_a;
    request.label = "app_a";
    const auto report_a = engine.run(request);
    const auto after_a = engine.cache_stats();

    request.program = &app_b;
    request.label = "app_b";
    const auto report_b = engine.run(request);
    const auto after_b = engine.cache_stats();

    // The front was compiled once: the second scenario added hits for the
    // shared kernel's keys but not a single new miss.
    EXPECT_EQ(after_b.misses, after_a.misses);
    EXPECT_GT(after_b.hits, after_a.hits);
    EXPECT_EQ(report_a.certificate.to_text(),
              report_b.certificate.to_text());
}

}  // namespace
