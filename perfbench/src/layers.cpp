#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "compiler/moo.hpp"
#include "contracts/system.hpp"
#include "coordination/glue.hpp"
#include "csl/csl.hpp"
#include "energy/analyser.hpp"
#include "ir/fingerprint.hpp"
#include "ir/validate.hpp"
#include "profiler/pow_profiler.hpp"
#include "security/taint.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "wcet/analyser.hpp"

namespace perfbench {

namespace compiler = teamplay::compiler;
namespace coordination = teamplay::coordination;
namespace contracts = teamplay::contracts;
namespace core = teamplay::core;
namespace csl = teamplay::csl;
namespace platform = teamplay::platform;
namespace sim = teamplay::sim;

// -- optimise replay ----------------------------------------------------------

OptimiseReplay replay_optimise(
    const compiler::MultiCriteriaCompiler& mcc,
    const compiler::MultiCriteriaCompiler::Options& options,
    const CompileHook& compile) {
    if (options.engine != compiler::MultiCriteriaCompiler::Engine::kFpa)
        throw std::invalid_argument("replay_optimise: FPA engine only");
    OptimiseReplay replay;
    const auto counted = [&](const compiler::PassConfig& config) {
        ++replay.compile_calls;
        return compile(config);
    };
    teamplay::support::Rng rng(options.seed);
    const compiler::EvalFn eval = [&](const compiler::Genome& genome) {
        const auto version =
            counted(mcc.decode(genome, options.explore_security));
        return compiler::Objectives{version.time_s, version.energy_j,
                                    version.leakage};
    };
    compiler::FpaParams params;
    params.population = options.population;
    params.iterations = options.iterations;
    const auto run =
        compiler::fpa_optimise(eval, compiler::kGenomeDims, params, rng);

    // Materialise exactly as MultiCriteriaCompiler::optimise does.
    std::vector<compiler::TaskVersion> versions;
    for (const auto& solution : run.front)
        versions.push_back(
            counted(mcc.decode(solution.genome, options.explore_security)));
    versions.push_back(counted(mcc.traditional_config()));
    std::vector<compiler::Solution> as_solutions;
    for (const auto& version : versions)
        as_solutions.push_back(compiler::Solution{
            {}, {version.time_s, version.energy_j, version.leakage}});
    std::vector<compiler::TaskVersion> front;
    for (const auto i : compiler::pareto_indices(as_solutions))
        front.push_back(std::move(versions[i]));
    std::sort(front.begin(), front.end(),
              [](const auto& a, const auto& b) { return a.time_s < b.time_s; });
    front.erase(std::unique(front.begin(), front.end(),
                            [](const auto& a, const auto& b) {
                                return a.time_s == b.time_s &&
                                       a.energy_j == b.energy_j &&
                                       a.leakage == b.leakage;
                            }),
                front.end());
    if (front.size() > options.max_versions) {
        std::vector<compiler::TaskVersion> thinned;
        const double step = static_cast<double>(front.size() - 1) /
                            static_cast<double>(options.max_versions - 1);
        for (std::size_t k = 0; k < options.max_versions; ++k)
            thinned.push_back(front[static_cast<std::size_t>(
                std::round(step * static_cast<double>(k)))]);
        front = std::move(thinned);
    }
    replay.front = std::move(front);
    return replay;
}

bool same_front(const std::vector<compiler::TaskVersion>& a,
                const std::vector<compiler::TaskVersion>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].config.label() != b[i].config.label() ||
            a[i].time_s != b[i].time_s || a[i].energy_j != b[i].energy_j ||
            a[i].leakage != b[i].leakage)
            return false;
    return true;
}

// -- pipeline re-issue --------------------------------------------------------

namespace {

// The helpers below restate, from public data, the decisions the engine's
// stages make (stages.cpp) so the traced calls receive the same inputs.

std::map<std::string, std::size_t> class_representatives(
    const platform::Platform& board) {
    std::map<std::string, std::size_t> reps;
    for (std::size_t i = 0; i < board.cores.size(); ++i)
        reps.try_emplace(board.cores[i].core_class, i);
    return reps;
}

std::vector<std::string> allowed_classes(
    const csl::TaskSpec& spec,
    const std::map<std::string, std::size_t>& reps) {
    std::vector<std::string> classes;
    for (const auto& [cls, index] : reps)
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

coordination::GlueStyle default_glue_style(const platform::Platform& board) {
    if (board.name == "gr712rc") return coordination::GlueStyle::kRtems;
    if (board.predictable() && board.cores.size() == 1)
        return coordination::GlueStyle::kSequential;
    return coordination::GlueStyle::kPosix;
}

/// Everything about a core that changes analyser or profiler output.
std::string core_identity(const platform::Core& core) {
    std::ostringstream os;
    os << core.name << '|' << core.core_class << '|' << core.model.name;
    for (const auto& opp : core.opps) os << '|' << opp.freq_hz << '@'
                                         << opp.voltage;
    return os.str();
}

sim::SimOptions engine_sim_options() {
    // What a default-constructed ScenarioEngine uses.
    sim::SimOptions options;
    if (options.backend == sim::SimBackend::kTrace)
        options.trace_cache = sim::TraceCache::process_wide();
    return options;
}

}  // namespace

void LayerTracer::analyse_static(
    const core::ScenarioRequest& request, const csl::AppSpec& spec,
    const std::map<std::string, std::uint64_t>& fps,
    std::uint64_t request_id) {
    const auto& board = *request.platform;
    const auto reps = class_representatives(board);
    const auto& base = request.options.compiler;
    for (const auto& task : spec.tasks) {
        for (const auto& cls : allowed_classes(task, reps)) {
            const auto& core_ref = board.cores[reps.at(cls)];
            std::ostringstream key;
            key << "front|" << fps.at(task.entry) << '|' << task.entry << '|'
                << core_identity(core_ref) << '|' << base.population << '|'
                << base.iterations << '|' << base.seed << '|'
                << base.max_versions << '|' << task.security_hint;
            if (!analysed_.insert(key.str()).second) continue;

            auto options = base;
            options.explore_security = task.security_hint == "auto";
            const compiler::MultiCriteriaCompiler mcc(
                *request.program, core_ref, engine_sim_options());
            std::vector<compiler::TaskVersion> front;
            std::vector<compiler::TaskVersion> searched;
            {
                const Tracer::Scope span(tracer_, "compiler.optimise",
                                         request_id);
                front = mcc.optimise(task.entry, options);
                searched = front;
                if (task.security_hint == "balance" ||
                    task.security_hint == "ladder") {
                    const auto forced =
                        task.security_hint == "balance"
                            ? compiler::SecurityLevel::kBalance
                            : compiler::SecurityLevel::kLadder;
                    for (auto& version : front) {
                        auto config = version.config;
                        config.security = forced;
                        version = mcc.compile(task.entry, config);
                    }
                }
            }
            // The replay compares against the unforced search result.
            static_probes_.push_back({request.program, &core_ref, task.entry,
                                      options, std::move(searched)});
        }
    }
}

void LayerTracer::analyse_profiled(
    const core::ScenarioRequest& request, const csl::AppSpec& spec,
    const std::map<std::string, std::uint64_t>& fps,
    std::uint64_t request_id) {
    const auto& board = *request.platform;
    const auto reps = class_representatives(board);
    const int runs = request.options.profile_runs;
    for (const auto& task : spec.tasks) {
        const teamplay::ir::Function* entry =
            request.program->find(task.entry);
        if (entry == nullptr) continue;
        const std::string taint_key =
            "taint|" + std::to_string(fps.at(task.entry)) + '|' + task.entry;
        if (analysed_.insert(taint_key).second) {
            const Tracer::Scope span(tracer_, "security.taint_entry",
                                     request_id);
            (void)teamplay::security::analyze_taint(*request.program, *entry);
        }
        for (const auto& cls : allowed_classes(task, reps)) {
            const auto& core_ref = board.cores[reps.at(cls)];
            for (std::size_t opp = 0; opp < core_ref.opps.size(); ++opp) {
                std::ostringstream key;
                key << "profile|" << fps.at(task.entry) << '|' << task.entry
                    << '|' << core_identity(core_ref) << '|' << opp << '|'
                    << runs;
                if (!analysed_.insert(key.str()).second) continue;
                const Tracer::Scope span(tracer_, "profiler.profile",
                                         request_id);
                teamplay::profiler::PowProfiler profiler(
                    *request.program, core_ref, opp, opp * 131 + 7,
                    engine_sim_options());
                (void)profiler.profile(
                    task.entry,
                    teamplay::profiler::zero_inputs(entry->param_count),
                    runs);
                sim_runs_ += static_cast<std::uint64_t>(runs);
                profiled_probes_.push_back(
                    {request.program, &core_ref, task.entry, opp});
            }
        }
    }
}

bool LayerTracer::reissue(const core::ScenarioRequest& request,
                          const core::ToolchainReport& engine_report,
                          std::uint64_t request_id, bool analyse) {
    const auto& board = *request.platform;

    csl::AppSpec spec;
    {
        const Tracer::Scope span(tracer_, "csl.parse", request_id);
        spec = csl::parse(request.csl_source);
    }
    const auto program_fp = core::fingerprint_program(*request.program);
    if (validated_.insert(program_fp).second) {
        const Tracer::Scope span(tracer_, "ir.validate", request_id);
        (void)teamplay::ir::validate(*request.program);
    }
    std::map<std::string, std::uint64_t> fps;
    {
        const Tracer::Scope span(tracer_, "ir.fingerprint", request_id);
        for (const auto& task : spec.tasks)
            fps.try_emplace(task.entry, teamplay::ir::structural_fingerprint(
                                            *request.program, task.entry));
    }

    const bool profiled = !board.predictable();
    if (profiled) {
        const Tracer::Scope span(tracer_, "coordination.glue", request_id);
        (void)coordination::generate_glue(spec.skeleton(), {}, board,
                                          coordination::GlueStyle::kSequential);
    }
    if (analyse) {
        if (profiled)
            analyse_profiled(request, spec, fps, request_id);
        else
            analyse_static(request, spec, fps, request_id);
    }

    // Schedule from the analysed task graph the engine built.
    auto scheduler_options = request.options.scheduler;
    if (scheduler_options.deadline_s <= 0.0)
        scheduler_options.deadline_s = effective_deadline(spec);
    coordination::Schedule schedule;
    {
        const Tracer::Scope span(tracer_, "coordination.schedule",
                                 request_id);
        schedule = coordination::Scheduler(board).schedule(engine_report.graph,
                                                           scheduler_options);
    }
    {
        const Tracer::Scope span(tracer_, "coordination.rta", request_id);
        for (std::size_t c = 0; c < board.cores.size(); ++c) {
            std::vector<coordination::PeriodicTask> periodic;
            bool all_periodic = true;
            for (const auto& entry : schedule.entries) {
                if (entry.core != c) continue;
                const auto* task_spec = spec.find(entry.task);
                if (task_spec == nullptr || task_spec->period_s <= 0.0) {
                    all_periodic = false;
                    break;
                }
                periodic.push_back({entry.task, entry.finish_s - entry.start_s,
                                    task_spec->period_s,
                                    task_spec->deadline_s});
            }
            if (all_periodic && periodic.size() > 1)
                (void)coordination::response_time_analysis(periodic);
        }
    }
    {
        const Tracer::Scope span(tracer_, "coordination.glue", request_id);
        (void)coordination::generate_glue(
            engine_report.graph, schedule, board,
            request.options.glue_style.value_or(default_glue_style(board)));
    }

    std::vector<contracts::ContractInput> inputs;
    for (const auto& entry : schedule.entries) {
        const auto* task_spec = spec.find(entry.task);
        if (task_spec == nullptr) continue;
        contracts::ContractInput input;
        input.poi = entry.task;
        input.function = task_spec->entry;
        input.time_budget_s = task_spec->time_budget_s;
        input.energy_budget_j = task_spec->energy_budget_j;
        input.leakage_budget = task_spec->leakage_budget;
        if (!profiled) {
            const auto* chosen = engine_report.chosen_version(entry.task);
            if (chosen == nullptr) continue;
            input.program = chosen->program.get();
            input.core = &board.cores[entry.core];
            input.opp_index = chosen->config.opp_index;
            input.leakage_proxy = chosen->leakage;
        } else {
            const auto* task = engine_report.graph.find(entry.task);
            const auto* versions =
                task->versions_for(board.cores[entry.core].core_class);
            if (versions == nullptr || entry.version >= versions->size())
                continue;
            const auto& choice = (*versions)[entry.version];
            input.measured_only = true;
            input.measured_time_s = choice.time_s;
            input.measured_energy_j = choice.energy_j;
            input.leakage_proxy = choice.leakage;
        }
        inputs.push_back(std::move(input));
    }
    contracts::Certificate certificate;
    {
        const Tracer::Scope span(tracer_, "contracts.check", request_id);
        certificate =
            contracts::check_contracts(spec.name, board.name, inputs);
    }
    return certificate.to_text() == engine_report.certificate.to_text();
}

std::uint64_t LayerTracer::run_probes() {
    std::uint64_t mismatches = 0;
    for (const auto& unit : static_probes_) {
        const Tracer::Scope root(tracer_, "probe", 0);
        const compiler::MultiCriteriaCompiler mcc(*unit.program, *unit.core,
                                                  engine_sim_options());
        const bool predictable = unit.core->model.predictable;
        const auto replay = replay_optimise(
            mcc, unit.options, [&](const compiler::PassConfig& config) {
                compiler::TaskVersion version;
                {
                    const Tracer::Scope span(tracer_, "compiler.compile", 0);
                    version = mcc.compile(unit.entry, config);
                }
                // The analysers compile() ran, once more on its output, so
                // transform time = compile time - analyser time.
                const auto& program = *version.program;
                const auto* fn = program.find(unit.entry);
                {
                    const Tracer::Scope span(tracer_, "security.taint", 0);
                    (void)teamplay::security::analyze_taint(program, *fn);
                }
                if (predictable) {
                    const Tracer::Scope wcet_span(tracer_, "wcet.analyse", 0);
                    (void)teamplay::wcet::Analyser(program).analyse(
                        unit.entry, *unit.core, config.opp_index);
                } else {
                    sim_runs_ += 3;
                }
                if (predictable) {
                    const Tracer::Scope energy_span(tracer_,
                                                    "energy.analyse", 0);
                    (void)teamplay::energy::Analyser(program).analyse(
                        unit.entry, *unit.core, config.opp_index);
                }
                return version;
            });
        compile_calls_ += replay.compile_calls;
        if (!same_front(replay.front, unit.front)) ++mismatches;
    }
    for (const auto& unit : profiled_probes_) {
        const Tracer::Scope root(tracer_, "probe", 0);
        const auto* fn = unit.program->find(unit.entry);
        const std::vector<teamplay::ir::Word> args(
            static_cast<std::size_t>(fn->param_count), 0);
        sim::Machine machine(*unit.program, *unit.core, unit.opp,
                             unit.opp * 131 + 7, engine_sim_options());
        const Tracer::Scope span(tracer_, "sim.run", 0);
        (void)machine.run(unit.entry, args);
    }
    static_probes_.clear();
    profiled_probes_.clear();
    return mismatches;
}

}  // namespace perfbench
