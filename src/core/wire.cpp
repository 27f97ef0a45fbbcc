#include "core/wire.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "support/fnv.hpp"

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

/// Node and proof trees are shallow in practice (builder nesting); the cap
/// only exists so a corrupted buffer cannot drive unbounded recursion.
constexpr int kMaxNodeDepth = 256;

constexpr std::size_t kHeaderBytes = 4 + 2 + 1;   // magic + version + kind
constexpr std::size_t kChecksumBytes = 8;

using Clock = std::chrono::steady_clock;

// -- archives -----------------------------------------------------------------
//
// Each wire type has one `transfer(ar, value)` listing its fields in wire
// order; `Writer` runs it to encode and `Reader` to decode, so the two
// directions cannot drift apart.  The reader's primitives make every check
// a decoded byte needs (bounds, bool and enum ranges, int narrowing,
// sequence counts, canonical map order, tree depth, fixed table sizes), so
// no transfer repeats one.  Small element types are listed inline, in the
// transfer of the type that holds them.

/// How a transfer sees its value: const when writing, mutable when reading.
template <class Ar, class T>
using Ref =
    std::conditional_t<std::remove_reference_t<Ar>::kWriting, const T&, T&>;
/// True for the archive that decodes.
template <class Ar>
constexpr bool kReads = !std::remove_reference_t<Ar>::kWriting;

/// The unsigned 64-bit types (std::uint64_t, std::size_t) sent as u64.
template <class U>
concept Word64 = std::unsigned_integral<U> && sizeof(U) == 8;

// The writer copies a field's bytes as they sit in memory, so the host
// order must be the wire's.
static_assert(std::endian::native == std::endian::little,
              "wire::Writer assumes a little-endian host");

/// Appends each field whole: one `memcpy` through a cursor into a buffer
/// that doubles when full, so a field costs a store, not a capacity check
/// per byte.  The trailer's FNV-1a is folded into the appends, so no second
/// pass reads the buffer back; it is the encoder's floor, one multiply per
/// byte, each waiting on the last.  `out` holds `used` written bytes
/// followed by spare room.
struct Writer {
    static constexpr bool kWriting = true;
    Buffer out = Buffer(256);  // a key frame fits without growing
    std::size_t used = 0;
    std::uint64_t checksum = support::kFnvOffsetBasis;  ///< of `used` bytes

    void append(const void* bytes, std::size_t count) {
        if (count > out.size() - used)
            out.resize(std::max(2 * out.size(), used + count));
        std::memcpy(out.data() + used, bytes, count);
        checksum = support::fnv1a(
            {static_cast<const std::uint8_t*>(bytes), count}, checksum);
        used += count;
    }
    /// Append `value` as `Bytes` little-endian bytes.
    template <int Bytes>
    void le(std::uint64_t value) { append(&value, Bytes); }
    void u64(std::uint64_t value) { le<8>(value); }
    void i64(std::int64_t value) { le<8>(static_cast<std::uint64_t>(value)); }
    void int_field(int value, std::string_view /*field*/) { i64(value); }
    void f64(double value) { le<8>(std::bit_cast<std::uint64_t>(value)); }
    void boolean(bool value) { le<1>(value ? 1 : 0); }
    void reg(ir::Reg value) { le<4>(static_cast<std::uint32_t>(value)); }
    void str(std::string_view text) {
        le<4>(text.size());
        append(text.data(), text.size());
    }
    template <class E>
    void enumeration(E value, E /*last*/, std::string_view /*name*/) {
        le<1>(static_cast<std::uint8_t>(value));
    }
    void fixed_size(std::size_t size, std::string_view /*name*/) {
        le<4>(size);
    }
    void nesting(int /*depth*/, std::string_view /*tree*/) {}

    /// Presence flag of an optional value or owning pointer.
    bool present(const auto& slot) {
        boolean(static_cast<bool>(slot));
        return static_cast<bool>(slot);
    }
    const auto& pointee(const auto& slot) { return *slot; }

    void seq(const auto& items, std::size_t /*min_element_bytes*/,
             auto each) {
        le<4>(items.size());
        for (const auto& item : items) each(item);
    }

    /// Map entries in map order: the key, then `each(key, value)`.
    void map(const auto& items, std::size_t /*min_entry_bytes*/,
             std::string_view /*name*/, auto each) {
        le<4>(items.size());
        for (const auto& [key, value] : items) {
            map_key(key);
            each(key, value);
        }
    }
    void map_key(std::string_view text) { str(text); }
    void map_key(std::uint64_t value) { u64(value); }

    /// A deadline crosses as the budget remaining now: an absolute
    /// steady-clock value is meaningless on another host's clock.
    void budget(Clock::time_point deadline) {
        f64(std::chrono::duration<double>(deadline - Clock::now()).count());
    }
};

struct Reader {
    static constexpr bool kWriting = false;
    std::span<const std::uint8_t> data;
    std::size_t pos = 0;

    void need(std::size_t bytes) const {
        if (bytes > data.size() - pos)
            throw WireFormatError("wire buffer truncated");
    }
    /// The next `Bytes` bytes as a little-endian value.
    template <int Bytes>
    std::uint64_t le() {
        need(Bytes);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 8 * Bytes; shift += 8)
            value |= static_cast<std::uint64_t>(data[pos++]) << shift;
        return value;
    }
    void u64(Word64 auto& value) { value = le<8>(); }
    void i64(std::int64_t& value) {
        value = static_cast<std::int64_t>(le<8>());
    }
    /// An int field sent as i64.  Out-of-range values are rejected: silently
    /// wrapping them would break encode(decode(b)) == b.
    void int_field(int& value, std::string_view field) {
        const auto wide = static_cast<std::int64_t>(le<8>());
        if (wide < std::numeric_limits<int>::min() ||
            wide > std::numeric_limits<int>::max())
            throw WireFormatError("wire field " + std::string(field) +
                                  " out of int range");
        value = static_cast<int>(wide);
    }
    void f64(double& value) { value = std::bit_cast<double>(le<8>()); }
    bool flag() {
        const std::uint64_t byte = le<1>();
        if (byte > 1) throw WireFormatError("wire bool byte not 0/1");
        return byte == 1;
    }
    void boolean(bool& value) { value = flag(); }
    void reg(ir::Reg& value) {
        value = static_cast<ir::Reg>(static_cast<std::uint32_t>(le<4>()));
    }
    void str(std::string& text) {
        const std::uint64_t length = le<4>();
        need(length);
        text.assign(reinterpret_cast<const char*>(data.data() + pos), length);
        pos += length;
    }
    /// An enum sent as one byte; anything past `last` is rejected.
    template <class E>
    void enumeration(E& value, E last, std::string_view name) {
        const std::uint64_t byte = le<1>();
        if (byte > static_cast<std::uint8_t>(last))
            throw WireFormatError("wire " + std::string(name) + " invalid");
        value = static_cast<E>(byte);
    }
    /// A fixed-size table is fixed per codec generation; a different size
    /// is a layout change, which is what the version field is for — here
    /// it can only mean corruption that survived the checksum window.
    void fixed_size(std::size_t size, std::string_view name) {
        if (le<4>() != size)
            throw WireFormatError("wire " + std::string(name) +
                                  " size invalid");
    }
    void nesting(int depth, std::string_view tree) {
        if (depth > kMaxNodeDepth)
            throw WireFormatError("wire " + std::string(tree) +
                                  " tree nested too deeply");
    }

    bool present(auto& /*slot*/) { return flag(); }
    /// A present slot's value, created empty for the caller to fill.
    template <class T>
    T& pointee(std::unique_ptr<T>& slot) {
        slot = std::make_unique<T>();
        return *slot;
    }
    template <class T>
    T& pointee(std::shared_ptr<const T>& slot) {
        auto value = std::make_shared<T>();
        slot = value;
        return *value;
    }
    template <class T>
    T& pointee(std::optional<T>& slot) { return slot.emplace(); }

    /// Sequence-count guard: each element occupies >= `min_element_bytes`,
    /// so a forged count larger than the remaining buffer is rejected
    /// before any allocation.
    std::uint32_t count(std::size_t min_element_bytes) {
        const auto n = static_cast<std::uint32_t>(le<4>());
        if (n > (data.size() - pos) / min_element_bytes)
            throw WireFormatError("wire sequence count exceeds buffer");
        return n;
    }
    void seq(auto& items, std::size_t min_element_bytes, auto each) {
        const std::uint32_t n = count(min_element_bytes);
        items.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) each(items.emplace_back());
    }

    template <class Map>
    void map(Map& items, std::size_t min_entry_bytes, std::string_view name,
             auto each) {
        const std::uint32_t n = count(min_entry_bytes);
        for (std::uint32_t i = 0; i < n; ++i) {
            typename Map::key_type key{};
            map_key(key);
            // The writer emits keys in strictly increasing map order; a
            // duplicate or unsorted key would decode, then re-encode to
            // different bytes.
            if (!items.empty() &&
                !items.key_comp()(items.rbegin()->first, key))
                throw WireFormatError("wire " + std::string(name) +
                                      " not in canonical order");
            const auto it = items.try_emplace(items.end(), std::move(key));
            each(it->first, it->second);
        }
    }
    void map_key(std::string& text) { str(text); }
    void map_key(Word64 auto& value) { u64(value); }

    void budget(Clock::time_point& deadline) {
        double budget_s = 0.0;
        f64(budget_s);
        if (std::isnan(budget_s))
            throw WireFormatError("wire deadline budget is NaN");
        // Re-anchor on this host's steady clock.  A negative budget is
        // legal: it means the deadline passed in transit and admission
        // should refuse the request immediately.
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(budget_s));
    }
};

// -- IR program ---------------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), ir::Node> node, int depth = 0) {
    ar.nesting(depth, "node");
    ar.enumeration(node.kind, ir::NodeKind::kCall, "node kind");
    switch (node.kind) {
        case ir::NodeKind::kBlock:
            ar.seq(node.instrs, 22, [&](auto& instr) {
                ar.enumeration(instr.op, ir::Opcode::kSelect, "opcode");
                ar.reg(instr.dst);
                ar.reg(instr.a);
                ar.reg(instr.b);
                ar.reg(instr.c);
                ar.i64(instr.imm);
                ar.boolean(instr.secret);
            });
            break;
        case ir::NodeKind::kSeq:
            ar.seq(node.children, 1, [&](auto& child) {
                transfer(ar, ar.pointee(child), depth + 1);
            });
            break;
        case ir::NodeKind::kIf: {
            ar.reg(node.cond);
            // Both presence flags come before either branch.
            const bool has_then = ar.present(node.then_branch);
            const bool has_else = ar.present(node.else_branch);
            if (has_then)
                transfer(ar, ar.pointee(node.then_branch), depth + 1);
            if (has_else)
                transfer(ar, ar.pointee(node.else_branch), depth + 1);
            break;
        }
        case ir::NodeKind::kLoop:
            ar.i64(node.trip);
            ar.i64(node.bound);
            ar.reg(node.trip_reg);
            ar.reg(node.index_reg);
            ar.i64(node.stride);
            if (ar.present(node.body))
                transfer(ar, ar.pointee(node.body), depth + 1);
            break;
        case ir::NodeKind::kCall:
            ar.str(node.callee);
            ar.seq(node.args, 4, [&](auto& arg) { ar.reg(arg); });
            ar.reg(node.ret);
            break;
    }
}

void transfer(auto& ar, Ref<decltype(ar), ir::Program> program) {
    ar.u64(program.memory_words);
    ar.map(program.functions, 4, "program functions",
           [&](const std::string& name, auto& fn) {
               // A function's name crosses once, as its map key.
               if constexpr (kReads<decltype(ar)>) fn.name = name;
               ar.int_field(fn.param_count, "param_count");
               ar.int_field(fn.reg_count, "reg_count");
               ar.reg(fn.ret_reg);
               if (ar.present(fn.body)) transfer(ar, ar.pointee(fn.body));
           });
}

// -- compiler / profiler payloads --------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), compiler::TaskVersion> version) {
    auto& config = version.config;
    ar.boolean(config.fold);
    ar.boolean(config.cse_pass);
    ar.boolean(config.strength);
    ar.boolean(config.dce_pass);
    ar.boolean(config.inline_calls_pass);
    ar.boolean(config.licm);
    ar.int_field(config.unroll_factor, "unroll_factor");
    ar.enumeration(config.security, compiler::SecurityLevel::kLadder,
                   "security level");
    ar.u64(config.opp_index);
    ar.boolean(version.analysable);
    ar.f64(version.wcet_s);
    ar.f64(version.wcec_j);
    ar.f64(version.time_s);
    ar.f64(version.energy_j);
    ar.f64(version.energy_dynamic_j);
    ar.f64(version.leakage);
    ar.int_field(version.static_instrs, "static_instrs");
    if (ar.present(version.program))
        transfer(ar, ar.pointee(version.program));
}

void transfer(auto& ar, Ref<decltype(ar), profiler::Estimate> estimate) {
    ar.f64(estimate.mean);
    ar.f64(estimate.stddev);
    ar.f64(estimate.p95);
    ar.f64(estimate.max);
}

void transfer(auto& ar, Ref<decltype(ar), AdmissionStats> stats) {
    // One entry per priority class, without a count: the class set is
    // fixed by the wire version.
    for (auto& per_class : stats.classes) {
        ar.u64(per_class.submitted);
        ar.u64(per_class.admitted);
        ar.u64(per_class.rejected);
        ar.u64(per_class.shed);
        ar.u64(per_class.completed);
        ar.u64(per_class.cancelled);
        ar.u64(per_class.failed);
        ar.u64(per_class.queue_peak);
    }
    ar.seq(stats.remote_failures, 8,
           [&](auto& failures) { ar.u64(failures); });
}

void transfer(auto& ar, Ref<decltype(ar), StageTelemetry> telemetry) {
    // StageTelemetry exposes its table read-only, so the reader rebuilds
    // it by folding each decoded stage into an empty table.
    auto stages = telemetry.stages();
    ar.map(stages, 28, "telemetry stages",
           [&](const std::string& /*name*/, auto& stage) {
               ar.u64(stage.count);
               ar.f64(stage.total_s);
               ar.f64(stage.max_s);
           });
    if constexpr (kReads<decltype(ar)>)
        for (const auto& [name, stage] : stages) {
            telemetry.merge(name, stage);
            // The fold starts from a zeroed entry, so it turns a negative,
            // -0.0 or NaN max_s (and a -0.0 total) into +0.0: a stage it
            // alters bit for bit would re-encode to different bytes.
            const auto& folded = telemetry.stages().find(name)->second;
            if (std::memcmp(&folded, &stage, sizeof stage) != 0)
                throw WireFormatError("wire telemetry stage not canonical");
        }
}

// -- platform -----------------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), isa::TargetModel> model) {
    ar.str(model.name);
    ar.boolean(model.predictable);
    ar.fixed_size(model.cost.size(), "cost table");
    for (auto& entry : model.cost) {
        ar.f64(entry.cycles);
        ar.f64(entry.energy_pj);
    }
    ar.f64(model.branch_cycles);
    ar.f64(model.branch_energy_pj);
    ar.f64(model.loop_iter_cycles);
    ar.f64(model.loop_iter_energy_pj);
    ar.f64(model.call_cycles);
    ar.f64(model.call_energy_pj);
    ar.f64(model.nominal_voltage);
    ar.f64(model.data_alpha_pj_per_bit);
    ar.f64(model.cache_miss_prob);
    ar.f64(model.cache_miss_penalty);
    ar.f64(model.timing_jitter_sigma);
}

void transfer(auto& ar, Ref<decltype(ar), platform::Platform> platform) {
    ar.str(platform.name);
    ar.f64(platform.base_power_w);
    ar.seq(platform.cores, 24, [&](auto& core) {
        ar.str(core.name);
        transfer(ar, core.model);
        ar.seq(core.opps, 24, [&](auto& opp) {
            ar.f64(opp.freq_hz);
            ar.f64(opp.voltage);
            ar.f64(opp.static_power_w);
        });
        ar.str(core.core_class);
    });
}

// -- CSL spec -----------------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), csl::AppSpec> spec) {
    ar.str(spec.name);
    ar.str(spec.platform);
    ar.f64(spec.deadline_s);
    ar.seq(spec.tasks, 60, [&](auto& task) {
        ar.str(task.name);
        ar.str(task.entry);
        ar.f64(task.period_s);
        ar.f64(task.deadline_s);
        ar.f64(task.time_budget_s);
        ar.f64(task.energy_budget_j);
        ar.f64(task.leakage_budget);
        ar.str(task.security_hint);
        ar.str(task.core_class);
        ar.seq(task.deps, 4, [&](auto& dep) { ar.str(dep); });
    });
}

// -- workflow options ---------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), WorkflowOptions> options) {
    ar.enumeration(options.compiler.engine,
                   compiler::MultiCriteriaCompiler::Engine::kWeightedSum,
                   "compiler engine");
    ar.int_field(options.compiler.population, "population");
    ar.int_field(options.compiler.iterations, "iterations");
    ar.u64(options.compiler.seed);
    ar.boolean(options.compiler.explore_security);
    ar.u64(options.compiler.max_versions);
    ar.enumeration(options.scheduler.objective,
                   coordination::Scheduler::Objective::kEnergy,
                   "scheduler objective");
    ar.f64(options.scheduler.deadline_s);
    ar.boolean(options.scheduler.anneal);
    ar.int_field(options.scheduler.anneal_iterations, "anneal_iterations");
    ar.u64(options.scheduler.seed);
    ar.int_field(options.profile_runs, "profile_runs");
    if (ar.present(options.glue_style))
        ar.enumeration(ar.pointee(options.glue_style),
                       coordination::GlueStyle::kPosix, "glue style");
}

// -- report payloads ----------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), coordination::Task> task) {
    ar.str(task.name);
    ar.str(task.entry_fn);
    ar.seq(task.deps, 4, [&](auto& dep) { ar.str(dep); });
    ar.f64(task.period_s);
    ar.f64(task.deadline_s);
    ar.map(task.versions, 8, "version map",
           [&](const std::string& /*core_class*/, auto& versions) {
               ar.seq(versions, 36, [&](auto& choice) {
                   ar.f64(choice.time_s);
                   ar.f64(choice.energy_j);
                   ar.f64(choice.leakage);
                   ar.u64(choice.opp_index);
                   ar.str(choice.note);
               });
           });
}

void transfer(auto& ar, Ref<decltype(ar), coordination::TaskGraph> graph) {
    ar.str(graph.app_name);
    ar.seq(graph.tasks, 32, [&](auto& task) { transfer(ar, task); });
}

void transfer(auto& ar, Ref<decltype(ar), coordination::Schedule> schedule) {
    ar.seq(schedule.entries, 56, [&](auto& entry) {
        ar.str(entry.task);
        ar.u64(entry.core);
        ar.u64(entry.version);
        ar.str(entry.core_class);
        ar.f64(entry.start_s);
        ar.f64(entry.finish_s);
        ar.f64(entry.dynamic_energy_j);
        ar.u64(entry.opp_index);
    });
    ar.f64(schedule.makespan_s);
    ar.boolean(schedule.feasible);
}

void transfer(auto& ar, Ref<decltype(ar), contracts::ProofNode> node,
              int depth = 0) {
    ar.nesting(depth, "proof");
    ar.enumeration(node.rule, contracts::ProofRule::kStaticLeak,
                   "proof rule");
    ar.f64(node.value);
    ar.f64(node.param);
    ar.str(node.note);
    ar.seq(node.children, 25,
           [&](auto& child) { transfer(ar, child, depth + 1); });
}

void transfer(auto& ar, Ref<decltype(ar), contracts::Certificate> certificate) {
    ar.str(certificate.app);
    ar.str(certificate.platform);
    ar.seq(certificate.results, 48, [&](auto& result) {
        ar.str(result.poi);
        ar.enumeration(result.property, contracts::Property::kSecurity,
                       "contract property");
        ar.f64(result.budget);
        ar.f64(result.analysed);
        ar.boolean(result.holds);
        ar.boolean(result.measured_only);
        transfer(ar, result.proof);
    });
}

void transfer(auto& ar, Ref<decltype(ar), ToolchainReport> report) {
    transfer(ar, report.spec);
    ar.str(report.platform_name);
    transfer(ar, report.graph);
    transfer(ar, report.schedule);
    transfer(ar, report.certificate);
    ar.str(report.glue_code);
    ar.str(report.sequential_glue);
    ar.seq(report.fronts, 12, [&](auto& front) {
        ar.str(front.task);
        ar.str(front.core_class);
        ar.seq(front.versions, 16,
               [&](auto& version) { transfer(ar, version); });
    });
    ar.map(report.rta, 13, "rta map",
           [&](std::size_t /*core*/, auto& rta) {
               ar.boolean(rta.schedulable);
               ar.seq(rta.response_times, 8,
                      [&](auto& response) { ar.f64(response); });
           });
    ar.seq(report.stage_laps, 12, [&](auto& lap) {
        ar.str(lap.stage);
        ar.f64(lap.seconds);
    });
}

// -- message payloads ---------------------------------------------------------

void transfer(auto& ar, Ref<decltype(ar), EvaluationKey> key) {
    ar.u64(key.structural_fp);
    ar.str(key.entry);
    ar.str(key.core_class);
    ar.u64(key.opp_index);
    ar.enumeration(key.kind, AnalysisKind::kTaint, "analysis kind");
    ar.u64(key.params);
}

void transfer(auto& ar, Ref<decltype(ar), EvaluationResult> result) {
    if (ar.present(result.front))
        ar.seq(ar.pointee(result.front), 16,
               [&](auto& version) { transfer(ar, version); });
    ar.str(result.profile.function);
    ar.int_field(result.profile.runs, "profile.runs");
    transfer(ar, result.profile.time_s);
    transfer(ar, result.profile.energy_j);
    transfer(ar, result.profile.cycles);
    ar.f64(result.leakage);
}

void transfer(auto& ar, Ref<decltype(ar), BatchStats> stats) {
    ar.u64(stats.scenarios);
    ar.u64(stats.workers);
    ar.f64(stats.wall_s);
    ar.f64(stats.scenarios_per_s);
    ar.u64(stats.cache.hits);
    ar.u64(stats.cache.misses);
    ar.u64(stats.cache.evictions);
    ar.u64(stats.cache.store_hits);
    ar.u64(stats.cache.store_misses);
    ar.u64(stats.cache.spills);
    ar.u64(stats.cache.store_rejects);
    ar.u64(stats.cache.remote_hits);
    ar.u64(stats.cache.remote_misses);
    ar.u64(stats.cache.entries);
    ar.f64(stats.cache.resident_cost);
    transfer(ar, stats.stage_telemetry);
    transfer(ar, stats.admission);
}

/// A request encodes from a ScenarioRequest, which borrows its program and
/// platform, and decodes into a ScenarioRequestFrame, which owns them.
template <class Ar>
using RequestRef = std::conditional_t<kReads<Ar>, ScenarioRequestFrame&,
                                      const ScenarioRequest&>;

void transfer(auto& ar, RequestRef<decltype(ar)> request) {
    if constexpr (kReads<decltype(ar)>) {
        transfer(ar, request.program);
        transfer(ar, request.platform);
    } else {
        transfer(ar, *request.program);
        transfer(ar, *request.platform);
    }
    ar.str(request.csl_source);
    if (ar.present(request.spec)) transfer(ar, ar.pointee(request.spec));
    transfer(ar, request.options);
    ar.str(request.label);
    ar.enumeration(request.priority, Priority::kBackground, "priority byte");
    if (ar.present(request.deadline))
        ar.budget(ar.pointee(request.deadline));
}

// -- framing ------------------------------------------------------------------

template <class T>
Buffer encode_message(MessageKind kind, const T& value) {
    Writer writer;
    writer.le<4>(kMagic);
    writer.le<2>(kVersion);
    writer.le<1>(static_cast<std::uint8_t>(kind));
    transfer(writer, value);
    writer.le<8>(writer.checksum);
    writer.out.resize(writer.used);
    return std::move(writer.out);
}

/// Validate framing (length, magic, checksum, version, kind), decode the
/// payload and reject any bytes left over.
template <class T>
T decode_message(std::span<const std::uint8_t> buffer, MessageKind kind) {
    if (buffer.size() < kHeaderBytes + kChecksumBytes)
        throw WireFormatError("wire buffer shorter than frame");
    const auto body = buffer.first(buffer.size() - kChecksumBytes);
    Reader frame{buffer};
    if (frame.le<4>() != kMagic) throw WireFormatError("wire magic mismatch");
    // Checksum before version: corruption must never masquerade as a
    // version skew.
    Reader trailer{buffer, buffer.size() - kChecksumBytes};
    if (trailer.le<8>() != support::fnv1a(body))
        throw WireFormatError("wire checksum mismatch");
    const auto version = static_cast<std::uint16_t>(frame.le<2>());
    if (version != kVersion) throw WireVersionError(version, kVersion);
    if (frame.le<1>() != static_cast<std::uint8_t>(kind))
        throw WireFormatError("wire message kind mismatch");

    Reader reader{body, kHeaderBytes};
    T value;
    transfer(reader, value);
    if (reader.pos != reader.data.size())
        throw WireFormatError("wire payload has trailing bytes");
    return value;
}

}  // namespace

// -- public surface -----------------------------------------------------------

Buffer encode(const EvaluationKey& key) {
    return encode_message(MessageKind::kKey, key);
}

EvaluationKey decode_key(std::span<const std::uint8_t> buffer) {
    return decode_message<EvaluationKey>(buffer, MessageKind::kKey);
}

Buffer encode(const EvaluationResult& result) {
    return encode_message(MessageKind::kResult, result);
}

EvaluationResult decode_result(std::span<const std::uint8_t> buffer) {
    return decode_message<EvaluationResult>(buffer, MessageKind::kResult);
}

Buffer encode(const StageTelemetry& telemetry) {
    return encode_message(MessageKind::kTelemetry, telemetry);
}

StageTelemetry decode_telemetry(std::span<const std::uint8_t> buffer) {
    return decode_message<StageTelemetry>(buffer, MessageKind::kTelemetry);
}

Buffer encode(const BatchStats& stats) {
    return encode_message(MessageKind::kBatchStats, stats);
}

BatchStats decode_batch_stats(std::span<const std::uint8_t> buffer) {
    return decode_message<BatchStats>(buffer, MessageKind::kBatchStats);
}

ScenarioRequest ScenarioRequestFrame::request() const {
    return {.program = &program,
            .platform = &platform,
            .csl_source = csl_source,
            .spec = spec,
            .options = options,
            .label = label,
            .priority = priority,
            .deadline = deadline};
}

Buffer encode(const ScenarioRequest& request) {
    if (request.program == nullptr || request.platform == nullptr)
        throw std::invalid_argument(
            "wire: cannot encode a ScenarioRequest without a program and "
            "platform");
    return encode_message(MessageKind::kRequest, request);
}

ScenarioRequestFrame decode_request(std::span<const std::uint8_t> buffer) {
    return decode_message<ScenarioRequestFrame>(buffer, MessageKind::kRequest);
}

Buffer encode(const ToolchainReport& report) {
    return encode_message(MessageKind::kReport, report);
}

ToolchainReport decode_report(std::span<const std::uint8_t> buffer) {
    return decode_message<ToolchainReport>(buffer, MessageKind::kReport);
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
