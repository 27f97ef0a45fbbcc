#include "core/wire.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace teamplay::core::wire {

namespace {

constexpr std::uint32_t kMagic = 0x54504C57;  // "TPLW"

enum class MessageKind : std::uint8_t {
    kKey = 1,
    kResult = 2,
    kTelemetry = 3,
    kBatchStats = 4,
    kRequest = 5,
    kReport = 6,
};

/// Node trees are shallow in practice (builder nesting); the cap only
/// exists so a corrupted buffer cannot drive unbounded recursion.
constexpr int kMaxNodeDepth = 256;

constexpr std::size_t kHeaderBytes = 4 + 2 + 1;   // magic + version + kind
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
    std::uint64_t value = 14695981039346656037ULL;
    for (const std::uint8_t byte : bytes) {
        value ^= byte;
        value *= 1099511628211ULL;
    }
    return value;
}

// -- writer -------------------------------------------------------------------

struct Writer {
    Buffer out;

    void u8(std::uint8_t value) { out.push_back(value); }
    void u16(std::uint16_t value) {
        out.push_back(static_cast<std::uint8_t>(value));
        out.push_back(static_cast<std::uint8_t>(value >> 8));
    }
    void u32(std::uint32_t value) {
        for (int shift = 0; shift < 32; shift += 8)
            out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
    void u64(std::uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8)
            out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
    void i64(std::int64_t value) {
        u64(static_cast<std::uint64_t>(value));
    }
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
    void boolean(bool value) { u8(value ? 1 : 0); }
    void reg(ir::Reg value) { u32(static_cast<std::uint32_t>(value)); }
    void str(std::string_view text) {
        u32(static_cast<std::uint32_t>(text.size()));
        out.insert(out.end(), text.begin(), text.end());
    }
};

// -- reader -------------------------------------------------------------------

struct Reader {
    std::span<const std::uint8_t> data;
    std::size_t pos = 0;

    void need(std::size_t bytes) const {
        if (bytes > data.size() - pos)
            throw WireFormatError("wire buffer truncated");
    }
    std::uint8_t u8() {
        need(1);
        return data[pos++];
    }
    std::uint16_t u16() {
        need(2);
        std::uint16_t value = 0;
        for (int shift = 0; shift < 16; shift += 8)
            value = static_cast<std::uint16_t>(
                value | static_cast<std::uint16_t>(data[pos++]) << shift);
        return value;
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8)
            value |= static_cast<std::uint32_t>(data[pos++]) << shift;
        return value;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= static_cast<std::uint64_t>(data[pos++]) << shift;
        return value;
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    /// An int field sent as i64.  Out-of-range values are rejected: silently
    /// wrapping them would break encode(decode(b)) == b.
    int int_field(std::string_view field) {
        const std::int64_t value = i64();
        if (value < std::numeric_limits<int>::min() ||
            value > std::numeric_limits<int>::max())
            throw WireFormatError("wire field " + std::string(field) +
                                  " out of int range");
        return static_cast<int>(value);
    }
    double f64() { return std::bit_cast<double>(u64()); }
    bool boolean() {
        const std::uint8_t byte = u8();
        if (byte > 1) throw WireFormatError("wire bool byte not 0/1");
        return byte == 1;
    }
    ir::Reg reg() { return static_cast<ir::Reg>(u32()); }
    std::string str() {
        const std::uint32_t length = u32();
        need(length);
        std::string text(reinterpret_cast<const char*>(data.data() + pos),
                         length);
        pos += length;
        return text;
    }
    /// Sequence-count guard: each element occupies >= `min_element_bytes`,
    /// so a forged count larger than the remaining buffer is rejected
    /// before any allocation.
    std::uint32_t count(std::size_t min_element_bytes) {
        const std::uint32_t n = u32();
        if (min_element_bytes > 0 &&
            n > (data.size() - pos) / min_element_bytes)
            throw WireFormatError("wire sequence count exceeds buffer");
        return n;
    }
};

// -- framing ------------------------------------------------------------------

Writer begin_message(MessageKind kind) {
    Writer writer;
    writer.u32(kMagic);
    writer.u16(kVersion);
    writer.u8(static_cast<std::uint8_t>(kind));
    return writer;
}

Buffer seal_message(Writer writer) {
    writer.u64(fnv1a(writer.out));
    return std::move(writer.out);
}

/// Validate framing (length, magic, checksum, version, kind) and return a
/// reader positioned at the payload, spanning exactly the payload bytes.
Reader open_message(std::span<const std::uint8_t> buffer, MessageKind kind) {
    if (buffer.size() < kHeaderBytes + kChecksumBytes)
        throw WireFormatError("wire buffer shorter than frame");
    const auto body = buffer.first(buffer.size() - kChecksumBytes);
    Reader frame{buffer};
    if (frame.u32() != kMagic) throw WireFormatError("wire magic mismatch");
    // Checksum before version: corruption must never masquerade as a
    // version skew.
    Reader trailer{buffer, buffer.size() - kChecksumBytes};
    if (trailer.u64() != fnv1a(body))
        throw WireFormatError("wire checksum mismatch");
    const std::uint16_t version = frame.u16();
    if (version != kVersion) throw WireVersionError(version, kVersion);
    if (frame.u8() != static_cast<std::uint8_t>(kind))
        throw WireFormatError("wire message kind mismatch");
    return Reader{body, kHeaderBytes};
}

void expect_fully_consumed(const Reader& reader) {
    if (reader.pos != reader.data.size())
        throw WireFormatError("wire payload has trailing bytes");
}

// -- IR program ---------------------------------------------------------------

void put_node(Writer& writer, const ir::Node& node) {
    writer.u8(static_cast<std::uint8_t>(node.kind));
    switch (node.kind) {
        case ir::NodeKind::kBlock:
            writer.u32(static_cast<std::uint32_t>(node.instrs.size()));
            for (const auto& instr : node.instrs) {
                writer.u8(static_cast<std::uint8_t>(instr.op));
                writer.reg(instr.dst);
                writer.reg(instr.a);
                writer.reg(instr.b);
                writer.reg(instr.c);
                writer.u64(static_cast<std::uint64_t>(instr.imm));
                writer.boolean(instr.secret);
            }
            break;
        case ir::NodeKind::kSeq:
            writer.u32(static_cast<std::uint32_t>(node.children.size()));
            for (const auto& child : node.children) put_node(writer, *child);
            break;
        case ir::NodeKind::kIf:
            writer.reg(node.cond);
            writer.boolean(node.then_branch != nullptr);
            writer.boolean(node.else_branch != nullptr);
            if (node.then_branch) put_node(writer, *node.then_branch);
            if (node.else_branch) put_node(writer, *node.else_branch);
            break;
        case ir::NodeKind::kLoop:
            writer.i64(node.trip);
            writer.i64(node.bound);
            writer.reg(node.trip_reg);
            writer.reg(node.index_reg);
            writer.i64(node.stride);
            writer.boolean(node.body != nullptr);
            if (node.body) put_node(writer, *node.body);
            break;
        case ir::NodeKind::kCall:
            writer.str(node.callee);
            writer.u32(static_cast<std::uint32_t>(node.args.size()));
            for (const ir::Reg arg : node.args) writer.reg(arg);
            writer.reg(node.ret);
            break;
    }
}

ir::NodePtr get_node(Reader& reader, int depth) {
    if (depth > kMaxNodeDepth)
        throw WireFormatError("wire node tree nested too deeply");
    const std::uint8_t kind_byte = reader.u8();
    if (kind_byte > static_cast<std::uint8_t>(ir::NodeKind::kCall))
        throw WireFormatError("wire node kind invalid");
    auto node = std::make_unique<ir::Node>();
    node->kind = static_cast<ir::NodeKind>(kind_byte);
    switch (node->kind) {
        case ir::NodeKind::kBlock: {
            const std::uint32_t n = reader.count(22);  // bytes per instr
            node->instrs.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                ir::Instr instr;
                const std::uint8_t op = reader.u8();
                if (op >= ir::kNumOpcodes)
                    throw WireFormatError("wire opcode invalid");
                instr.op = static_cast<ir::Opcode>(op);
                instr.dst = reader.reg();
                instr.a = reader.reg();
                instr.b = reader.reg();
                instr.c = reader.reg();
                instr.imm = reader.i64();
                instr.secret = reader.boolean();
                node->instrs.push_back(instr);
            }
            break;
        }
        case ir::NodeKind::kSeq: {
            const std::uint32_t n = reader.count(1);
            node->children.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i)
                node->children.push_back(get_node(reader, depth + 1));
            break;
        }
        case ir::NodeKind::kIf: {
            node->cond = reader.reg();
            const bool has_then = reader.boolean();
            const bool has_else = reader.boolean();
            if (has_then) node->then_branch = get_node(reader, depth + 1);
            if (has_else) node->else_branch = get_node(reader, depth + 1);
            break;
        }
        case ir::NodeKind::kLoop: {
            node->trip = reader.i64();
            node->bound = reader.i64();
            node->trip_reg = reader.reg();
            node->index_reg = reader.reg();
            node->stride = reader.i64();
            if (reader.boolean()) node->body = get_node(reader, depth + 1);
            break;
        }
        case ir::NodeKind::kCall: {
            node->callee = reader.str();
            const std::uint32_t n = reader.count(4);
            node->args.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i)
                node->args.push_back(reader.reg());
            node->ret = reader.reg();
            break;
        }
    }
    return node;
}

void put_program(Writer& writer, const ir::Program& program) {
    writer.u64(program.memory_words);
    writer.u32(static_cast<std::uint32_t>(program.functions.size()));
    // std::map iteration: name order, canonical on both sides.
    for (const auto& [name, fn] : program.functions) {
        writer.str(name);
        writer.i64(fn.param_count);
        writer.i64(fn.reg_count);
        writer.reg(fn.ret_reg);
        writer.boolean(fn.body != nullptr);
        if (fn.body) put_node(writer, *fn.body);
    }
}

ir::Program get_program(Reader& reader) {
    ir::Program program;
    program.memory_words = reader.u64();
    const std::uint32_t n = reader.count(4);
    std::string previous_name;
    for (std::uint32_t i = 0; i < n; ++i) {
        ir::Function fn;
        fn.name = reader.str();
        // The encoder emits functions in strict map order; accepting
        // duplicates or unsorted names would break the byte-exact
        // encode(decode(b)) == b guarantee.
        if (i > 0 && fn.name <= previous_name)
            throw WireFormatError(
                "wire program functions not in canonical order");
        previous_name = fn.name;
        fn.param_count = reader.int_field("param_count");
        fn.reg_count = reader.int_field("reg_count");
        fn.ret_reg = reader.reg();
        if (reader.boolean()) fn.body = get_node(reader, 0);
        program.functions[fn.name] = std::move(fn);
    }
    return program;
}

// -- compiler / profiler payloads --------------------------------------------

void put_task_version(Writer& writer, const compiler::TaskVersion& version) {
    const auto& config = version.config;
    writer.boolean(config.fold);
    writer.boolean(config.cse_pass);
    writer.boolean(config.strength);
    writer.boolean(config.dce_pass);
    writer.boolean(config.inline_calls_pass);
    writer.boolean(config.licm);
    writer.i64(config.unroll_factor);
    writer.u8(static_cast<std::uint8_t>(config.security));
    writer.u64(config.opp_index);
    writer.boolean(version.analysable);
    writer.f64(version.wcet_s);
    writer.f64(version.wcec_j);
    writer.f64(version.time_s);
    writer.f64(version.energy_j);
    writer.f64(version.energy_dynamic_j);
    writer.f64(version.leakage);
    writer.i64(version.static_instrs);
    writer.boolean(version.program != nullptr);
    if (version.program) put_program(writer, *version.program);
}

compiler::TaskVersion get_task_version(Reader& reader) {
    compiler::TaskVersion version;
    auto& config = version.config;
    config.fold = reader.boolean();
    config.cse_pass = reader.boolean();
    config.strength = reader.boolean();
    config.dce_pass = reader.boolean();
    config.inline_calls_pass = reader.boolean();
    config.licm = reader.boolean();
    config.unroll_factor = reader.int_field("unroll_factor");
    const std::uint8_t security = reader.u8();
    if (security > static_cast<std::uint8_t>(compiler::SecurityLevel::kLadder))
        throw WireFormatError("wire security level invalid");
    config.security = static_cast<compiler::SecurityLevel>(security);
    config.opp_index = reader.u64();
    version.analysable = reader.boolean();
    version.wcet_s = reader.f64();
    version.wcec_j = reader.f64();
    version.time_s = reader.f64();
    version.energy_j = reader.f64();
    version.energy_dynamic_j = reader.f64();
    version.leakage = reader.f64();
    version.static_instrs = reader.int_field("static_instrs");
    if (reader.boolean())
        version.program =
            std::make_shared<const ir::Program>(get_program(reader));
    return version;
}

void put_estimate(Writer& writer, const profiler::Estimate& estimate) {
    writer.f64(estimate.mean);
    writer.f64(estimate.stddev);
    writer.f64(estimate.p95);
    writer.f64(estimate.max);
}

profiler::Estimate get_estimate(Reader& reader) {
    profiler::Estimate estimate;
    estimate.mean = reader.f64();
    estimate.stddev = reader.f64();
    estimate.p95 = reader.f64();
    estimate.max = reader.f64();
    return estimate;
}

void put_profile(Writer& writer, const profiler::TaskProfile& profile) {
    writer.str(profile.function);
    writer.i64(profile.runs);
    put_estimate(writer, profile.time_s);
    put_estimate(writer, profile.energy_j);
    put_estimate(writer, profile.cycles);
}

profiler::TaskProfile get_profile(Reader& reader) {
    profiler::TaskProfile profile;
    profile.function = reader.str();
    profile.runs = reader.int_field("profile.runs");
    profile.time_s = get_estimate(reader);
    profile.energy_j = get_estimate(reader);
    profile.cycles = get_estimate(reader);
    return profile;
}

void put_cache_stats(Writer& writer, const EvaluationCache::Stats& stats) {
    writer.u64(stats.hits);
    writer.u64(stats.misses);
    writer.u64(stats.evictions);
    writer.u64(stats.store_hits);
    writer.u64(stats.store_misses);
    writer.u64(stats.spills);
    writer.u64(stats.store_rejects);
    writer.u64(stats.remote_hits);
    writer.u64(stats.remote_misses);
    writer.u64(stats.entries);
    writer.f64(stats.resident_cost);
}

EvaluationCache::Stats get_cache_stats(Reader& reader) {
    EvaluationCache::Stats stats;
    stats.hits = reader.u64();
    stats.misses = reader.u64();
    stats.evictions = reader.u64();
    stats.store_hits = reader.u64();
    stats.store_misses = reader.u64();
    stats.spills = reader.u64();
    stats.store_rejects = reader.u64();
    stats.remote_hits = reader.u64();
    stats.remote_misses = reader.u64();
    stats.entries = reader.u64();
    stats.resident_cost = reader.f64();
    return stats;
}

void put_admission(Writer& writer, const AdmissionStats& stats) {
    for (const auto& per_class : stats.classes) {
        writer.u64(per_class.submitted);
        writer.u64(per_class.admitted);
        writer.u64(per_class.rejected);
        writer.u64(per_class.shed);
        writer.u64(per_class.completed);
        writer.u64(per_class.cancelled);
        writer.u64(per_class.failed);
        writer.u64(per_class.queue_peak);
    }
    writer.u32(static_cast<std::uint32_t>(stats.remote_failures.size()));
    for (const std::uint64_t failures : stats.remote_failures)
        writer.u64(failures);
}

AdmissionStats get_admission(Reader& reader) {
    AdmissionStats stats;
    for (auto& per_class : stats.classes) {
        per_class.submitted = reader.u64();
        per_class.admitted = reader.u64();
        per_class.rejected = reader.u64();
        per_class.shed = reader.u64();
        per_class.completed = reader.u64();
        per_class.cancelled = reader.u64();
        per_class.failed = reader.u64();
        per_class.queue_peak = reader.u64();
    }
    const std::uint32_t remotes = reader.count(8);
    stats.remote_failures.reserve(remotes);
    for (std::uint32_t i = 0; i < remotes; ++i)
        stats.remote_failures.push_back(reader.u64());
    return stats;
}

void put_telemetry(Writer& writer, const StageTelemetry& telemetry) {
    writer.u32(static_cast<std::uint32_t>(telemetry.stages().size()));
    for (const auto& [name, stage] : telemetry.stages()) {
        writer.str(name);
        writer.u64(stage.count);
        writer.f64(stage.total_s);
        writer.f64(stage.max_s);
    }
}

StageTelemetry get_telemetry(Reader& reader) {
    StageTelemetry telemetry;
    const std::uint32_t n = reader.count(28);  // name len + 3 scalars
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::string name = reader.str();
        StageTelemetry::PerStage stage;
        stage.count = reader.u64();
        stage.total_s = reader.f64();
        stage.max_s = reader.f64();
        telemetry.merge(name, stage);
    }
    return telemetry;
}

// -- platform -----------------------------------------------------------------

void put_target_model(Writer& writer, const isa::TargetModel& model) {
    writer.str(model.name);
    writer.boolean(model.predictable);
    writer.u32(static_cast<std::uint32_t>(model.cost.size()));
    for (const auto& entry : model.cost) {
        writer.f64(entry.cycles);
        writer.f64(entry.energy_pj);
    }
    writer.f64(model.branch_cycles);
    writer.f64(model.branch_energy_pj);
    writer.f64(model.loop_iter_cycles);
    writer.f64(model.loop_iter_energy_pj);
    writer.f64(model.call_cycles);
    writer.f64(model.call_energy_pj);
    writer.f64(model.nominal_voltage);
    writer.f64(model.data_alpha_pj_per_bit);
    writer.f64(model.cache_miss_prob);
    writer.f64(model.cache_miss_penalty);
    writer.f64(model.timing_jitter_sigma);
}

isa::TargetModel get_target_model(Reader& reader) {
    isa::TargetModel model;
    model.name = reader.str();
    model.predictable = reader.boolean();
    // The cost table is fixed-size per codec generation; a different class
    // count is a layout change, which is what the version field is for —
    // here it can only mean corruption that survived the checksum window.
    if (reader.u32() != model.cost.size())
        throw WireFormatError("wire cost table size invalid");
    for (auto& entry : model.cost) {
        entry.cycles = reader.f64();
        entry.energy_pj = reader.f64();
    }
    model.branch_cycles = reader.f64();
    model.branch_energy_pj = reader.f64();
    model.loop_iter_cycles = reader.f64();
    model.loop_iter_energy_pj = reader.f64();
    model.call_cycles = reader.f64();
    model.call_energy_pj = reader.f64();
    model.nominal_voltage = reader.f64();
    model.data_alpha_pj_per_bit = reader.f64();
    model.cache_miss_prob = reader.f64();
    model.cache_miss_penalty = reader.f64();
    model.timing_jitter_sigma = reader.f64();
    return model;
}

void put_platform(Writer& writer, const platform::Platform& platform) {
    writer.str(platform.name);
    writer.f64(platform.base_power_w);
    writer.u32(static_cast<std::uint32_t>(platform.cores.size()));
    for (const auto& core : platform.cores) {
        writer.str(core.name);
        put_target_model(writer, core.model);
        writer.u32(static_cast<std::uint32_t>(core.opps.size()));
        for (const auto& opp : core.opps) {
            writer.f64(opp.freq_hz);
            writer.f64(opp.voltage);
            writer.f64(opp.static_power_w);
        }
        writer.str(core.core_class);
    }
}

platform::Platform get_platform(Reader& reader) {
    platform::Platform platform;
    platform.name = reader.str();
    platform.base_power_w = reader.f64();
    const std::uint32_t cores = reader.count(24);
    platform.cores.reserve(cores);
    for (std::uint32_t i = 0; i < cores; ++i) {
        platform::Core core;
        core.name = reader.str();
        core.model = get_target_model(reader);
        const std::uint32_t opps = reader.count(24);
        core.opps.reserve(opps);
        for (std::uint32_t j = 0; j < opps; ++j) {
            platform::OperatingPoint opp;
            opp.freq_hz = reader.f64();
            opp.voltage = reader.f64();
            opp.static_power_w = reader.f64();
            core.opps.push_back(opp);
        }
        core.core_class = reader.str();
        platform.cores.push_back(std::move(core));
    }
    return platform;
}

// -- CSL spec -----------------------------------------------------------------

void put_app_spec(Writer& writer, const csl::AppSpec& spec) {
    writer.str(spec.name);
    writer.str(spec.platform);
    writer.f64(spec.deadline_s);
    writer.u32(static_cast<std::uint32_t>(spec.tasks.size()));
    for (const auto& task : spec.tasks) {
        writer.str(task.name);
        writer.str(task.entry);
        writer.f64(task.period_s);
        writer.f64(task.deadline_s);
        writer.f64(task.time_budget_s);
        writer.f64(task.energy_budget_j);
        writer.f64(task.leakage_budget);
        writer.str(task.security_hint);
        writer.str(task.core_class);
        writer.u32(static_cast<std::uint32_t>(task.deps.size()));
        for (const auto& dep : task.deps) writer.str(dep);
    }
}

csl::AppSpec get_app_spec(Reader& reader) {
    csl::AppSpec spec;
    spec.name = reader.str();
    spec.platform = reader.str();
    spec.deadline_s = reader.f64();
    const std::uint32_t tasks = reader.count(60);
    spec.tasks.reserve(tasks);
    for (std::uint32_t i = 0; i < tasks; ++i) {
        csl::TaskSpec task;
        task.name = reader.str();
        task.entry = reader.str();
        task.period_s = reader.f64();
        task.deadline_s = reader.f64();
        task.time_budget_s = reader.f64();
        task.energy_budget_j = reader.f64();
        task.leakage_budget = reader.f64();
        task.security_hint = reader.str();
        task.core_class = reader.str();
        const std::uint32_t deps = reader.count(4);
        task.deps.reserve(deps);
        for (std::uint32_t j = 0; j < deps; ++j)
            task.deps.push_back(reader.str());
        spec.tasks.push_back(std::move(task));
    }
    return spec;
}

// -- workflow options ---------------------------------------------------------

void put_options(Writer& writer, const WorkflowOptions& options) {
    writer.u8(static_cast<std::uint8_t>(options.compiler.engine));
    writer.i64(options.compiler.population);
    writer.i64(options.compiler.iterations);
    writer.u64(options.compiler.seed);
    writer.boolean(options.compiler.explore_security);
    writer.u64(options.compiler.max_versions);
    writer.u8(static_cast<std::uint8_t>(options.scheduler.objective));
    writer.f64(options.scheduler.deadline_s);
    writer.boolean(options.scheduler.anneal);
    writer.i64(options.scheduler.anneal_iterations);
    writer.u64(options.scheduler.seed);
    writer.i64(options.profile_runs);
    writer.boolean(options.glue_style.has_value());
    if (options.glue_style)
        writer.u8(static_cast<std::uint8_t>(*options.glue_style));
}

WorkflowOptions get_options(Reader& reader) {
    WorkflowOptions options;
    const std::uint8_t engine = reader.u8();
    if (engine > static_cast<std::uint8_t>(
                     compiler::MultiCriteriaCompiler::Engine::kWeightedSum))
        throw WireFormatError("wire compiler engine invalid");
    options.compiler.engine =
        static_cast<compiler::MultiCriteriaCompiler::Engine>(engine);
    options.compiler.population = reader.int_field("population");
    options.compiler.iterations = reader.int_field("iterations");
    options.compiler.seed = reader.u64();
    options.compiler.explore_security = reader.boolean();
    options.compiler.max_versions = reader.u64();
    const std::uint8_t objective = reader.u8();
    if (objective > static_cast<std::uint8_t>(
                        coordination::Scheduler::Objective::kEnergy))
        throw WireFormatError("wire scheduler objective invalid");
    options.scheduler.objective =
        static_cast<coordination::Scheduler::Objective>(objective);
    options.scheduler.deadline_s = reader.f64();
    options.scheduler.anneal = reader.boolean();
    options.scheduler.anneal_iterations = reader.int_field("anneal_iterations");
    options.scheduler.seed = reader.u64();
    options.profile_runs = reader.int_field("profile_runs");
    if (reader.boolean()) {
        const std::uint8_t style = reader.u8();
        if (style > static_cast<std::uint8_t>(coordination::GlueStyle::kPosix))
            throw WireFormatError("wire glue style invalid");
        options.glue_style = static_cast<coordination::GlueStyle>(style);
    }
    return options;
}

// -- report payloads ----------------------------------------------------------

void put_task_graph(Writer& writer, const coordination::TaskGraph& graph) {
    writer.str(graph.app_name);
    writer.u32(static_cast<std::uint32_t>(graph.tasks.size()));
    for (const auto& task : graph.tasks) {
        writer.str(task.name);
        writer.str(task.entry_fn);
        writer.u32(static_cast<std::uint32_t>(task.deps.size()));
        for (const auto& dep : task.deps) writer.str(dep);
        writer.f64(task.period_s);
        writer.f64(task.deadline_s);
        // std::map iteration: core-class order, canonical on both sides.
        writer.u32(static_cast<std::uint32_t>(task.versions.size()));
        for (const auto& [core_class, versions] : task.versions) {
            writer.str(core_class);
            writer.u32(static_cast<std::uint32_t>(versions.size()));
            for (const auto& choice : versions) {
                writer.f64(choice.time_s);
                writer.f64(choice.energy_j);
                writer.f64(choice.leakage);
                writer.u64(choice.opp_index);
                writer.str(choice.note);
            }
        }
    }
}

coordination::TaskGraph get_task_graph(Reader& reader) {
    coordination::TaskGraph graph;
    graph.app_name = reader.str();
    const std::uint32_t tasks = reader.count(32);
    graph.tasks.reserve(tasks);
    for (std::uint32_t i = 0; i < tasks; ++i) {
        coordination::Task task;
        task.name = reader.str();
        task.entry_fn = reader.str();
        const std::uint32_t deps = reader.count(4);
        task.deps.reserve(deps);
        for (std::uint32_t j = 0; j < deps; ++j)
            task.deps.push_back(reader.str());
        task.period_s = reader.f64();
        task.deadline_s = reader.f64();
        const std::uint32_t classes = reader.count(8);
        std::string previous_class;
        for (std::uint32_t j = 0; j < classes; ++j) {
            std::string core_class = reader.str();
            if (j > 0 && core_class <= previous_class)
                throw WireFormatError(
                    "wire version map not in canonical order");
            previous_class = core_class;
            const std::uint32_t versions = reader.count(36);
            std::vector<coordination::VersionChoice> choices;
            choices.reserve(versions);
            for (std::uint32_t k = 0; k < versions; ++k) {
                coordination::VersionChoice choice;
                choice.time_s = reader.f64();
                choice.energy_j = reader.f64();
                choice.leakage = reader.f64();
                choice.opp_index = reader.u64();
                choice.note = reader.str();
                choices.push_back(std::move(choice));
            }
            task.versions[std::move(core_class)] = std::move(choices);
        }
        graph.tasks.push_back(std::move(task));
    }
    return graph;
}

void put_schedule(Writer& writer, const coordination::Schedule& schedule) {
    writer.u32(static_cast<std::uint32_t>(schedule.entries.size()));
    for (const auto& entry : schedule.entries) {
        writer.str(entry.task);
        writer.u64(entry.core);
        writer.u64(entry.version);
        writer.str(entry.core_class);
        writer.f64(entry.start_s);
        writer.f64(entry.finish_s);
        writer.f64(entry.dynamic_energy_j);
        writer.u64(entry.opp_index);
    }
    writer.f64(schedule.makespan_s);
    writer.boolean(schedule.feasible);
}

coordination::Schedule get_schedule(Reader& reader) {
    coordination::Schedule schedule;
    const std::uint32_t entries = reader.count(64);
    schedule.entries.reserve(entries);
    for (std::uint32_t i = 0; i < entries; ++i) {
        coordination::ScheduleEntry entry;
        entry.task = reader.str();
        entry.core = reader.u64();
        entry.version = reader.u64();
        entry.core_class = reader.str();
        entry.start_s = reader.f64();
        entry.finish_s = reader.f64();
        entry.dynamic_energy_j = reader.f64();
        entry.opp_index = reader.u64();
        schedule.entries.push_back(std::move(entry));
    }
    schedule.makespan_s = reader.f64();
    schedule.feasible = reader.boolean();
    return schedule;
}

void put_proof_node(Writer& writer, const contracts::ProofNode& node) {
    writer.u8(static_cast<std::uint8_t>(node.rule));
    writer.f64(node.value);
    writer.f64(node.param);
    writer.str(node.note);
    writer.u32(static_cast<std::uint32_t>(node.children.size()));
    for (const auto& child : node.children) put_proof_node(writer, child);
}

contracts::ProofNode get_proof_node(Reader& reader, int depth) {
    if (depth > kMaxNodeDepth)
        throw WireFormatError("wire proof tree nested too deeply");
    contracts::ProofNode node;
    const std::uint8_t rule = reader.u8();
    if (rule > static_cast<std::uint8_t>(contracts::ProofRule::kStaticLeak))
        throw WireFormatError("wire proof rule invalid");
    node.rule = static_cast<contracts::ProofRule>(rule);
    node.value = reader.f64();
    node.param = reader.f64();
    node.note = reader.str();
    const std::uint32_t children = reader.count(25);
    node.children.reserve(children);
    for (std::uint32_t i = 0; i < children; ++i)
        node.children.push_back(get_proof_node(reader, depth + 1));
    return node;
}

void put_certificate(Writer& writer,
                     const contracts::Certificate& certificate) {
    writer.str(certificate.app);
    writer.str(certificate.platform);
    writer.u32(static_cast<std::uint32_t>(certificate.results.size()));
    for (const auto& result : certificate.results) {
        writer.str(result.poi);
        writer.u8(static_cast<std::uint8_t>(result.property));
        writer.f64(result.budget);
        writer.f64(result.analysed);
        writer.boolean(result.holds);
        writer.boolean(result.measured_only);
        put_proof_node(writer, result.proof);
    }
}

contracts::Certificate get_certificate(Reader& reader) {
    contracts::Certificate certificate;
    certificate.app = reader.str();
    certificate.platform = reader.str();
    const std::uint32_t results = reader.count(48);
    certificate.results.reserve(results);
    for (std::uint32_t i = 0; i < results; ++i) {
        contracts::ContractResult result;
        result.poi = reader.str();
        const std::uint8_t property = reader.u8();
        if (property >
            static_cast<std::uint8_t>(contracts::Property::kSecurity))
            throw WireFormatError("wire contract property invalid");
        result.property = static_cast<contracts::Property>(property);
        result.budget = reader.f64();
        result.analysed = reader.f64();
        result.holds = reader.boolean();
        result.measured_only = reader.boolean();
        result.proof = get_proof_node(reader, 0);
        certificate.results.push_back(std::move(result));
    }
    return certificate;
}

void put_report(Writer& writer, const ToolchainReport& report) {
    put_app_spec(writer, report.spec);
    writer.str(report.platform_name);
    put_task_graph(writer, report.graph);
    put_schedule(writer, report.schedule);
    put_certificate(writer, report.certificate);
    writer.str(report.glue_code);
    writer.str(report.sequential_glue);
    writer.u32(static_cast<std::uint32_t>(report.fronts.size()));
    for (const auto& front : report.fronts) {
        writer.str(front.task);
        writer.str(front.core_class);
        writer.u32(static_cast<std::uint32_t>(front.versions.size()));
        for (const auto& version : front.versions)
            put_task_version(writer, version);
    }
    // std::map iteration: ascending core index, canonical on both sides.
    writer.u32(static_cast<std::uint32_t>(report.rta.size()));
    for (const auto& [core, rta] : report.rta) {
        writer.u64(core);
        writer.boolean(rta.schedulable);
        writer.u32(static_cast<std::uint32_t>(rta.response_times.size()));
        for (const double response : rta.response_times)
            writer.f64(response);
    }
    writer.u32(static_cast<std::uint32_t>(report.stage_laps.size()));
    for (const auto& lap : report.stage_laps) {
        writer.str(lap.stage);
        writer.f64(lap.seconds);
    }
}

ToolchainReport get_report(Reader& reader) {
    ToolchainReport report;
    report.spec = get_app_spec(reader);
    report.platform_name = reader.str();
    report.graph = get_task_graph(reader);
    report.schedule = get_schedule(reader);
    report.certificate = get_certificate(reader);
    report.glue_code = reader.str();
    report.sequential_glue = reader.str();
    const std::uint32_t fronts = reader.count(12);
    report.fronts.reserve(fronts);
    for (std::uint32_t i = 0; i < fronts; ++i) {
        TaskFront front;
        front.task = reader.str();
        front.core_class = reader.str();
        const std::uint32_t versions = reader.count(16);
        front.versions.reserve(versions);
        for (std::uint32_t j = 0; j < versions; ++j)
            front.versions.push_back(get_task_version(reader));
        report.fronts.push_back(std::move(front));
    }
    const std::uint32_t rta_entries = reader.count(13);
    bool have_previous_core = false;
    std::size_t previous_core = 0;
    for (std::uint32_t i = 0; i < rta_entries; ++i) {
        const std::size_t core = reader.u64();
        if (have_previous_core && core <= previous_core)
            throw WireFormatError("wire rta map not in canonical order");
        have_previous_core = true;
        previous_core = core;
        coordination::RtaResult rta;
        rta.schedulable = reader.boolean();
        const std::uint32_t responses = reader.count(8);
        rta.response_times.reserve(responses);
        for (std::uint32_t j = 0; j < responses; ++j)
            rta.response_times.push_back(reader.f64());
        report.rta[core] = std::move(rta);
    }
    const std::uint32_t laps = reader.count(12);
    report.stage_laps.reserve(laps);
    for (std::uint32_t i = 0; i < laps; ++i) {
        StageLap lap;
        lap.stage = reader.str();
        lap.seconds = reader.f64();
        report.stage_laps.push_back(std::move(lap));
    }
    return report;
}

}  // namespace

// -- public surface -----------------------------------------------------------

Buffer encode(const EvaluationKey& key) {
    Writer writer = begin_message(MessageKind::kKey);
    writer.u64(key.structural_fp);
    writer.str(key.entry);
    writer.str(key.core_class);
    writer.u64(key.opp_index);
    writer.u8(static_cast<std::uint8_t>(key.kind));
    writer.u64(key.params);
    return seal_message(std::move(writer));
}

EvaluationKey decode_key(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kKey);
    EvaluationKey key;
    key.structural_fp = reader.u64();
    key.entry = reader.str();
    key.core_class = reader.str();
    key.opp_index = reader.u64();
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(AnalysisKind::kTaint))
        throw WireFormatError("wire analysis kind invalid");
    key.kind = static_cast<AnalysisKind>(kind);
    key.params = reader.u64();
    expect_fully_consumed(reader);
    return key;
}

Buffer encode(const EvaluationResult& result) {
    Writer writer = begin_message(MessageKind::kResult);
    writer.boolean(result.front != nullptr);
    if (result.front) {
        writer.u32(static_cast<std::uint32_t>(result.front->size()));
        for (const auto& version : *result.front)
            put_task_version(writer, version);
    }
    put_profile(writer, result.profile);
    writer.f64(result.leakage);
    return seal_message(std::move(writer));
}

EvaluationResult decode_result(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kResult);
    EvaluationResult result;
    if (reader.boolean()) {
        const std::uint32_t n = reader.count(16);
        std::vector<compiler::TaskVersion> versions;
        versions.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            versions.push_back(get_task_version(reader));
        result.front =
            std::make_shared<const std::vector<compiler::TaskVersion>>(
                std::move(versions));
    }
    result.profile = get_profile(reader);
    result.leakage = reader.f64();
    expect_fully_consumed(reader);
    return result;
}

Buffer encode(const StageTelemetry& telemetry) {
    Writer writer = begin_message(MessageKind::kTelemetry);
    put_telemetry(writer, telemetry);
    return seal_message(std::move(writer));
}

StageTelemetry decode_telemetry(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kTelemetry);
    StageTelemetry telemetry = get_telemetry(reader);
    expect_fully_consumed(reader);
    return telemetry;
}

Buffer encode(const BatchStats& stats) {
    Writer writer = begin_message(MessageKind::kBatchStats);
    writer.u64(stats.scenarios);
    writer.u64(stats.workers);
    writer.f64(stats.wall_s);
    writer.f64(stats.scenarios_per_s);
    put_cache_stats(writer, stats.cache);
    put_telemetry(writer, stats.stage_telemetry);
    put_admission(writer, stats.admission);
    return seal_message(std::move(writer));
}

BatchStats decode_batch_stats(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kBatchStats);
    BatchStats stats;
    stats.scenarios = reader.u64();
    stats.workers = reader.u64();
    stats.wall_s = reader.f64();
    stats.scenarios_per_s = reader.f64();
    stats.cache = get_cache_stats(reader);
    stats.stage_telemetry = get_telemetry(reader);
    stats.admission = get_admission(reader);
    expect_fully_consumed(reader);
    return stats;
}

ScenarioRequest ScenarioRequestFrame::request() const {
    ScenarioRequest request;
    request.program = &program;
    request.platform = &platform;
    request.csl_source = csl_source;
    request.spec = spec;
    request.options = options;
    request.label = label;
    request.priority = priority;
    request.deadline = deadline;
    return request;
}

Buffer encode(const ScenarioRequest& request) {
    if (request.program == nullptr || request.platform == nullptr)
        throw std::invalid_argument(
            "wire: cannot encode a ScenarioRequest without a program and "
            "platform");
    Writer writer = begin_message(MessageKind::kRequest);
    put_program(writer, *request.program);
    put_platform(writer, *request.platform);
    writer.str(request.csl_source);
    writer.boolean(request.spec.has_value());
    if (request.spec) put_app_spec(writer, *request.spec);
    put_options(writer, request.options);
    writer.str(request.label);
    writer.u8(static_cast<std::uint8_t>(request.priority));
    // The deadline crosses as remaining budget, sampled now: an absolute
    // steady-clock value is meaningless on another host's clock.
    writer.boolean(request.deadline.has_value());
    if (request.deadline.has_value())
        writer.f64(std::chrono::duration<double>(
                       *request.deadline - std::chrono::steady_clock::now())
                       .count());
    return seal_message(std::move(writer));
}

ScenarioRequestFrame decode_request(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kRequest);
    ScenarioRequestFrame frame;
    frame.program = get_program(reader);
    frame.platform = get_platform(reader);
    frame.csl_source = reader.str();
    if (reader.boolean()) frame.spec = get_app_spec(reader);
    frame.options = get_options(reader);
    frame.label = reader.str();
    const std::uint8_t priority = reader.u8();
    if (priority >= kNumPriorityClasses)
        throw WireFormatError("wire priority byte invalid");
    frame.priority = static_cast<Priority>(priority);
    if (reader.boolean()) {
        const double budget_s = reader.f64();
        if (std::isnan(budget_s))
            throw WireFormatError("wire deadline budget is NaN");
        // Re-anchor on this host's steady clock.  A negative budget is
        // legal: it means the deadline passed in transit and admission
        // should refuse the request immediately.
        frame.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(budget_s));
    }
    expect_fully_consumed(reader);
    return frame;
}

Buffer encode(const ToolchainReport& report) {
    Writer writer = begin_message(MessageKind::kReport);
    put_report(writer, report);
    return seal_message(std::move(writer));
}

ToolchainReport decode_report(std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, MessageKind::kReport);
    ToolchainReport report = get_report(reader);
    expect_fully_consumed(reader);
    return report;
}

// -- frame streams ------------------------------------------------------------

void append_frame(Buffer& stream, std::span<const std::uint8_t> message) {
    const auto length = static_cast<std::uint32_t>(message.size());
    for (int shift = 0; shift < 32; shift += 8)
        stream.push_back(static_cast<std::uint8_t>(length >> shift));
    stream.insert(stream.end(), message.begin(), message.end());
}

std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> stream, std::size_t& offset) {
    if (offset == stream.size()) return std::nullopt;
    if (stream.size() - offset < 4)
        throw WireFormatError("frame length prefix truncated");
    std::uint32_t length = 0;
    for (int shift = 0; shift < 32; shift += 8)
        length |= static_cast<std::uint32_t>(stream[offset++]) << shift;
    if (length > stream.size() - offset)
        throw WireFormatError("frame payload truncated");
    const auto payload = stream.subspan(offset, length);
    offset += length;
    return payload;
}

}  // namespace teamplay::core::wire
