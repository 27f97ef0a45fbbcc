#include "core/stages.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "ir/fingerprint.hpp"
#include "ir/validate.hpp"
#include "security/taint.hpp"
#include "support/fnv.hpp"

namespace teamplay::core {

namespace {

/// Representative core index per distinct core class of the platform.
std::map<std::string, std::size_t> class_representatives(
    const platform::Platform& platform) {
    std::map<std::string, std::size_t> reps;
    for (std::size_t i = 0; i < platform.cores.size(); ++i)
        reps.try_emplace(platform.cores[i].core_class, i);
    return reps;
}

/// Core classes a task may run on, honouring its CSL constraint.
std::vector<std::string> allowed_classes(
    const csl::TaskSpec& spec,
    const std::map<std::string, std::size_t>& reps) {
    std::vector<std::string> classes;
    for (const auto& [cls, idx] : reps)
        if (spec.core_class.empty() || spec.core_class == cls)
            classes.push_back(cls);
    return classes;
}

double effective_deadline(const csl::AppSpec& spec) {
    double deadline = spec.deadline_s;
    if (deadline <= 0.0)
        for (const auto& task : spec.tasks)
            deadline = std::max(deadline, task.deadline_s);
    return deadline;
}

coordination::GlueStyle default_glue_style(
    const platform::Platform& platform) {
    if (platform.name == "gr712rc") return coordination::GlueStyle::kRtems;
    if (platform.predictable() && platform.cores.size() == 1)
        return coordination::GlueStyle::kSequential;
    return coordination::GlueStyle::kPosix;
}

void attach_rta(ToolchainReport& report,
                const platform::Platform& platform) {
    // Rate-monotonic response-time analysis per core, when every task
    // scheduled there is periodic.
    for (std::size_t c = 0; c < platform.cores.size(); ++c) {
        std::vector<coordination::PeriodicTask> periodic;
        bool all_periodic = true;
        for (const auto& entry : report.schedule.entries) {
            if (entry.core != c) continue;
            const auto* spec = report.spec.find(entry.task);
            if (spec == nullptr || spec->period_s <= 0.0) {
                all_periodic = false;
                break;
            }
            coordination::PeriodicTask task;
            task.name = entry.task;
            task.wcet_s = entry.finish_s - entry.start_s;
            task.period_s = spec->period_s;
            task.deadline_s = spec->deadline_s;
            periodic.push_back(std::move(task));
        }
        if (all_periodic && periodic.size() > 1)
            report.rta[c] = coordination::response_time_analysis(periodic);
    }
}

/// Mix the identity of a core (everything that influences analyser and
/// profiler output) into a fingerprint.  The key's core_class alone is not
/// enough: different boards reuse class names with different OPP tables,
/// and the full cost model must participate — two boards may share names
/// and OPPs yet differ in a cost table entry.
void mix_core(support::Fnv1a& fp, const platform::Core& core) {
    fp.mix(core.name).mix(core.core_class);
    isa::mix_model(fp, core.model);
    for (const auto& opp : core.opps)
        fp.mix(opp.freq_hz).mix(opp.voltage).mix(opp.static_power_w);
}

std::uint64_t front_params(
    const compiler::MultiCriteriaCompiler::Options& options,
    const csl::TaskSpec& task_spec, const platform::Core& core) {
    support::Fnv1a fp;
    fp.mix(static_cast<std::uint64_t>(options.engine));
    fp.mix(static_cast<std::uint64_t>(options.population));
    fp.mix(static_cast<std::uint64_t>(options.iterations));
    fp.mix(options.seed);
    fp.mix(static_cast<std::uint64_t>(options.max_versions));
    fp.mix(task_spec.security_hint);
    mix_core(fp, core);
    return fp.value;
}

std::uint64_t profile_params(int profile_runs, const platform::Core& core) {
    support::Fnv1a fp;
    fp.mix(static_cast<std::uint64_t>(profile_runs));
    mix_core(fp, core);
    return fp.value;
}

/// The static per-(task, core class) unit of work: multi-criteria
/// compilation plus security-hint enforcement.  Pure function of its
/// arguments — exactly what the cache memoises.
std::vector<compiler::TaskVersion> compile_front(
    const ir::Program& program, const platform::Core& core,
    const csl::TaskSpec& task_spec,
    compiler::MultiCriteriaCompiler::Options compiler_options,
    const sim::SimOptions& sim) {
    compiler::MultiCriteriaCompiler mcc(program, core, sim);
    compiler_options.explore_security = task_spec.security_hint == "auto";
    auto front = mcc.optimise(task_spec.entry, compiler_options);

    // A fixed security hint overrides the knob on every version.
    if (task_spec.security_hint == "balance" ||
        task_spec.security_hint == "ladder") {
        const auto forced = task_spec.security_hint == "balance"
                                ? compiler::SecurityLevel::kBalance
                                : compiler::SecurityLevel::kLadder;
        for (auto& version : front) {
            auto config = version.config;
            config.security = forced;
            version = mcc.compile(task_spec.entry, config);
        }
    }
    return front;
}

// -- the five stages ----------------------------------------------------------

void parse(ScenarioContext& context) {
    ir::validate_or_throw(*context.program);
    auto& spec = context.report.spec;
    if (context.request->spec.has_value())
        spec = *context.request->spec;
    else
        spec = csl::parse(context.request->csl_source);
    // Spec defects fail here, with one message whichever flow the platform
    // selects, before any analysis runs.  An app without tasks would
    // otherwise certify an empty schedule.
    if (spec.tasks.empty())
        throw std::runtime_error("app '" + spec.name + "' declares no tasks");
    if (const auto error = csl::task_list_error(spec); !error.empty())
        throw std::runtime_error(error);
    const auto reps = class_representatives(*context.platform);
    for (const auto& task_spec : spec.tasks) {
        if (context.program->find(task_spec.entry) == nullptr)
            throw std::runtime_error("task '" + task_spec.name +
                                     "' entry function '" + task_spec.entry +
                                     "' not found");
        if (allowed_classes(task_spec, reps).empty())
            throw std::runtime_error("task '" + task_spec.name +
                                     "' fits no core class of " +
                                     context.platform->name);
    }
    context.report.platform_name = context.platform->name;
    context.report.graph = spec.skeleton();
    // Structural fingerprints of every task entry, computed once per
    // scenario: the program component of all downstream cache keys (and
    // the quantity the shard router hashes, so routing and keying agree).
    for (const auto& task_spec : spec.tasks)
        context.entry_fps.try_emplace(
            task_spec.entry,
            ir::structural_fingerprint(*context.program, task_spec.entry));
}

/// Fig. 1: multi-criteria compiled Pareto fronts per (task, core class).
void analyse_static(ScenarioContext& context) {
    const auto reps = class_representatives(*context.platform);

    struct Tuple {
        const csl::TaskSpec* task;
        std::string cls;
        const platform::Core* core;
    };
    std::vector<Tuple> tuples;
    for (const auto& task_spec : context.report.spec.tasks)
        for (const auto& cls : allowed_classes(task_spec, reps))
            tuples.push_back({&task_spec, cls,
                              &context.platform->cores[reps.at(cls)]});

    std::vector<std::shared_ptr<const EvaluationResult>> results(
        tuples.size());
    context.pool->parallel_for(tuples.size(), [&](std::size_t i) {
        const auto& tuple = tuples[i];
        EvaluationKey key;
        key.structural_fp = context.entry_fps.at(tuple.task->entry);
        key.entry = tuple.task->entry;
        key.core_class = tuple.cls;
        key.kind = AnalysisKind::kCompiledFront;
        key.params =
            front_params(context.options.compiler, *tuple.task, *tuple.core);
        results[i] = context.cache->lookup(key, [&] {
            EvaluationResult result;
            result.front =
                std::make_shared<const std::vector<compiler::TaskVersion>>(
                    compile_front(*context.program, *tuple.core, *tuple.task,
                                  context.options.compiler, context.sim));
            return result;
        });
    });

    // Merge in tuple order (spec order x sorted class order) so the report
    // is independent of worker count.
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        const auto& tuple = tuples[i];
        coordination::Task* task =
            context.report.graph.find(tuple.task->name);
        TaskFront front;
        front.task = tuple.task->name;
        front.core_class = tuple.cls;
        front.versions = *results[i]->front;
        for (const auto& version : front.versions) {
            coordination::VersionChoice choice;
            choice.time_s = version.wcet_s;
            choice.energy_j = version.energy_dynamic_j;
            choice.leakage = version.leakage;
            choice.opp_index = version.config.opp_index;
            choice.note = version.config.label();
            task->versions[tuple.cls].push_back(choice);
        }
        context.report.fronts.push_back(std::move(front));
    }
}

/// Fig. 2, pass 1 (solid path): sequential glue + dynamic profiling of
/// every task on every admissible (core class, DVFS point).
void analyse_profiled(ScenarioContext& context) {
    context.report.sequential_glue = coordination::generate_glue(
        context.report.graph, {}, *context.platform,
        coordination::GlueStyle::kSequential);

    const auto reps = class_representatives(*context.platform);

    struct Tuple {
        const csl::TaskSpec* task;
        const ir::Function* entry;
        std::string cls;
        const platform::Core* core;
        std::size_t opp;
    };
    std::vector<Tuple> tuples;
    for (const auto& task_spec : context.report.spec.tasks) {
        const ir::Function* entry = context.program->find(task_spec.entry);
        for (const auto& cls : allowed_classes(task_spec, reps)) {
            const auto& core = context.platform->cores[reps.at(cls)];
            for (std::size_t opp = 0; opp < core.opps.size(); ++opp)
                tuples.push_back({&task_spec, entry, cls, &core, opp});
        }
    }

    std::vector<coordination::VersionChoice> choices(tuples.size());
    context.pool->parallel_for(tuples.size(), [&](std::size_t i) {
        const auto& tuple = tuples[i];

        EvaluationKey taint_key;
        taint_key.structural_fp = context.entry_fps.at(tuple.task->entry);
        taint_key.entry = tuple.task->entry;
        taint_key.kind = AnalysisKind::kTaint;
        const auto taint = context.cache->lookup(taint_key, [&] {
            EvaluationResult result;
            result.leakage =
                security::analyze_taint(*context.program, *tuple.entry)
                    .leakage_proxy();
            return result;
        });

        EvaluationKey key;
        key.structural_fp = context.entry_fps.at(tuple.task->entry);
        key.entry = tuple.task->entry;
        key.core_class = tuple.cls;
        key.opp_index = tuple.opp;
        key.kind = AnalysisKind::kProfile;
        key.params =
            profile_params(context.options.profile_runs, *tuple.core);
        const auto measured = context.cache->lookup(key, [&] {
            EvaluationResult result;
            // Each (core, OPP) campaign owns its machine inside the
            // profiler, so concurrent tuples never share simulator
            // state; the seed is a pure function of the OPP, keeping
            // results thread-count-invariant.
            profiler::PowProfiler prof(*context.program, *tuple.core,
                                       tuple.opp,
                                       /*seed=*/tuple.opp * 131 + 7,
                                       context.sim);
            result.profile = prof.profile(
                tuple.task->entry,
                profiler::zero_inputs(tuple.entry->param_count),
                context.options.profile_runs);
            return result;
        });

        coordination::VersionChoice choice;
        choice.time_s = measured->profile.time_s.high_water_mark();
        choice.energy_j = measured->profile.energy_j.mean;
        choice.leakage = taint->leakage;
        choice.opp_index = tuple.opp;
        choice.note = "profiled@opp" + std::to_string(tuple.opp);
        choices[i] = std::move(choice);
    });

    for (std::size_t i = 0; i < tuples.size(); ++i) {
        coordination::Task* task =
            context.report.graph.find(tuples[i].task->name);
        task->versions[tuples[i].cls].push_back(std::move(choices[i]));
    }
}

void analyse(ScenarioContext& context) {
    if (context.platform->predictable())
        analyse_static(context);
    else
        analyse_profiled(context);
}

void schedule(ScenarioContext& context) {
    auto scheduler_options = context.options.scheduler;
    if (scheduler_options.deadline_s <= 0.0)
        scheduler_options.deadline_s = effective_deadline(context.report.spec);
    const coordination::Scheduler scheduler(*context.platform);
    context.report.schedule =
        scheduler.schedule(context.report.graph, scheduler_options);
    attach_rta(context.report, *context.platform);

    const auto style = context.options.glue_style.value_or(
        default_glue_style(*context.platform));
    context.report.glue_code = coordination::generate_glue(
        context.report.graph, context.report.schedule, *context.platform,
        style);
}

/// Predictable platforms prove the chosen compiled versions; complex ones
/// admit the profiled estimates as measured evidence.
void contract(ScenarioContext& context) {
    const auto& report = context.report;
    const bool predictable = context.platform->predictable();
    for (const auto& entry : report.schedule.entries) {
        const auto* task_spec = report.spec.find(entry.task);
        if (task_spec == nullptr) continue;

        contracts::ContractInput input;
        input.poi = entry.task;
        input.function = task_spec->entry;
        input.time_budget_s = task_spec->time_budget_s;
        input.energy_budget_j = task_spec->energy_budget_j;
        input.leakage_budget = task_spec->leakage_budget;
        if (predictable) {
            const compiler::TaskVersion* chosen_v =
                report.chosen_version(entry.task);
            if (chosen_v == nullptr) continue;
            input.program = chosen_v->program.get();
            input.core = &context.platform->cores[entry.core];
            input.opp_index = chosen_v->config.opp_index;
            input.leakage_proxy = chosen_v->leakage;
        } else {
            const auto* task = report.graph.find(entry.task);
            const auto* versions = task->versions_for(
                context.platform->cores[entry.core].core_class);
            if (versions == nullptr || entry.version >= versions->size())
                continue;
            const auto& choice = (*versions)[entry.version];
            input.measured_only = true;
            input.measured_time_s = choice.time_s;
            input.measured_energy_j = choice.energy_j;
            input.leakage_proxy = choice.leakage;
        }
        context.contract_inputs.push_back(std::move(input));
    }
}

void certify(ScenarioContext& context) {
    context.report.certificate =
        contracts::check_contracts(context.report.spec.name,
                                   context.platform->name,
                                   context.contract_inputs);
}

}  // namespace

void run_stage(std::size_t index, ScenarioContext& context) {
    // Bound to kStageNames in the same order.
    static constexpr std::array<void (*)(ScenarioContext&),
                                kStageNames.size()>
        kStageFunctions = {parse, analyse, schedule, contract, certify};
    kStageFunctions[index](context);
}

}  // namespace teamplay::core
