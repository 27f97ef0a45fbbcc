#include "compiler/multi_criteria.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

#include "energy/analyser.hpp"
#include "ir/lowering.hpp"
#include "security/taint.hpp"
#include "security/transforms.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace teamplay::compiler {

std::string_view security_level_name(SecurityLevel level) {
    switch (level) {
        case SecurityLevel::kNone: return "none";
        case SecurityLevel::kBalance: return "balance";
        case SecurityLevel::kLadder: return "ladder";
    }
    return "?";
}

std::string PassConfig::label() const {
    std::ostringstream os;
    os << "u" << unroll_factor << (inline_calls_pass ? "+inl" : "")
       << (fold ? "+fold" : "") << (cse_pass ? "+cse" : "")
       << (strength ? "+sr" : "") << (licm ? "+licm" : "")
       << (dce_pass ? "+dce" : "") << "/sec="
       << security_level_name(security) << "/opp" << opp_index;
    return os.str();
}

MultiCriteriaCompiler::MultiCriteriaCompiler(const ir::Program& source,
                                             const platform::Core& core,
                                             sim::SimOptions sim)
    : source_(&source), core_(&core), sim_(std::move(sim)) {}

PassConfig MultiCriteriaCompiler::traditional_config() const {
    PassConfig config;
    // A solid -O2-style scalar baseline (folding, CSE, strength reduction,
    // LICM, DCE) without the WCET/energy-directed knobs (unrolling tuned by
    // the analysers, inlining, security level, DVFS selection) — the
    // "traditional toolchain" the paper compares against.
    config.fold = true;
    config.cse_pass = true;
    config.strength = true;
    config.licm = true;
    config.dce_pass = true;
    config.inline_calls_pass = false;
    // No unrolling or inlining: embedded baselines ship -Os-style builds
    // (code size and analysability first), which is exactly the flow the
    // paper's industrial partners used before TeamPlay.
    config.unroll_factor = 1;
    config.security = SecurityLevel::kNone;
    config.opp_index = core_->max_opp();  // race-to-idle default
    return config;
}

TaskVersion MultiCriteriaCompiler::compile(const std::string& function,
                                           const PassConfig& config) const {
    // Clone and transform.  Passes run in a fixed order: inline first (so
    // later passes see the whole body), scalar cleanups, unrolling, then the
    // security countermeasure, and DCE last to sweep dead values.
    auto transformed = std::make_shared<ir::Program>(*source_);
    ir::Function* fn = transformed->find(function);
    if (fn == nullptr)
        throw std::invalid_argument("compile: undefined function '" +
                                    function + "'");

    if (config.inline_calls_pass) inline_calls(*transformed, *fn);
    // Scalar cleanups run whole-program (callees too), like any real
    // compiler; the analyser-driven knobs (inlining above, unrolling below,
    // security, DVFS) apply to the task entry.
    for (auto& [name, function] : transformed->functions) {
        if (config.fold) constant_fold(function);
        if (config.strength) strength_reduce(function, core_->model);
        if (config.cse_pass) cse(function);
        if (config.licm) hoist_loop_constants(function);
        if (config.dce_pass && name != fn->name) dce(function);
    }
    if (config.unroll_factor > 1) unroll_loops(*fn, config.unroll_factor);
    switch (config.security) {
        case SecurityLevel::kBalance:
            security::balance_secret_branches(*transformed, *fn);
            break;
        case SecurityLevel::kLadder:
            security::ladderise(*transformed, *fn);
            break;
        case SecurityLevel::kNone:
            break;
    }
    if (config.dce_pass) dce(*fn);

    TaskVersion version;
    version.config = config;
    version.program = transformed;
    ir::for_each_instr(*fn->body, [&version](const ir::Instr&) {
        ++version.static_instrs;
    });

    const auto taint = security::analyze_taint(*transformed, *fn);
    version.leakage = taint.leakage_proxy();

    if (core_->model.predictable) {
        // The energy bound carries the WCET bound it priced: one cycle fold.
        const energy::Analyser energy_analyser(*transformed);
        const auto energy = energy_analyser.analyse(function, *core_,
                                                    config.opp_index);
        version.analysable = energy.analysable;
        version.wcet_s = energy.wcet.time_s;
        version.wcec_j = energy.wcec_j;
        version.time_s = energy.wcet.time_s;
        version.energy_j = energy.wcec_j;
        version.energy_dynamic_j = energy.wce_dynamic_j;
    } else {
        // Complex core: representative cost measured over a few simulator
        // runs (the in-compiler equivalent of a quick profiling pass).
        static constexpr std::uint64_t kSeeds[] = {1000, 1001, 1002};
        constexpr double kRuns = std::size(kSeeds);
        double time_acc = 0.0;
        double energy_acc = 0.0;
        double dynamic_acc = 0.0;
        const ir::Function* entry = transformed->find(function);
        const std::vector<ir::Word> args(
            static_cast<std::size_t>(entry->param_count), 0);
        sim::Machine machine(*transformed, *core_, config.opp_index,
                             kSeeds[0], sim_);
        // Candidate programs are throwaway, so compile the trace directly
        // (no shared-cache churn).
        if (machine.backend() == sim::SimBackend::kTrace)
            machine.attach_trace(function,
                                 sim::TraceCompiler::compile(
                                     *transformed, function, core_->model));
        for (const auto& run : machine.run_seeds(function, args, kSeeds)) {
            time_acc += run.time_s;
            energy_acc += run.energy_j();
            dynamic_acc += run.dynamic_energy_j;
        }
        version.analysable = false;
        version.time_s = time_acc / kRuns;
        version.energy_j = energy_acc / kRuns;
        version.energy_dynamic_j = dynamic_acc / kRuns;
    }
    return version;
}

PassConfig MultiCriteriaCompiler::decode(const Genome& genome,
                                         bool explore_security) const {
    const auto pick = [&genome](std::size_t i, int buckets) {
        const double g = i < genome.size() ? std::clamp(genome[i], 0.0, 1.0)
                                           : 0.0;
        const int bucket = std::min(static_cast<int>(g * buckets),
                                    buckets - 1);
        return bucket;
    };
    PassConfig config;
    static constexpr int kUnrollChoices[] = {1, 2, 4, 8};
    config.unroll_factor = kUnrollChoices[pick(0, 4)];
    config.inline_calls_pass = pick(1, 2) == 1;
    config.cse_pass = pick(2, 2) == 1;
    config.strength = pick(3, 2) == 1;
    config.fold = pick(4, 2) == 1;
    config.security =
        explore_security ? static_cast<SecurityLevel>(pick(5, 3))
                         : SecurityLevel::kNone;
    config.opp_index = static_cast<std::size_t>(
        pick(6, static_cast<int>(core_->opps.size())));
    config.licm = pick(7, 2) == 1;
    config.dce_pass = true;
    return config;
}

std::vector<TaskVersion> MultiCriteriaCompiler::optimise(
    const std::string& function, const Options& options) const {
    if (options.max_versions == 0)
        throw std::invalid_argument("optimise: max_versions must be >= 1");

    // Passes rewrite one function at a time, and the taint, WCET, energy and
    // simulator code only follow calls from the entry, so a candidate's
    // objectives depend on the entry's call graph alone.  The search scores
    // candidates on that sub-program, once per distinct config (many genomes
    // decode to one config).  The memo holds objectives only: holding whole
    // versions would keep every candidate's transformed program alive.
    const ir::Program reachable = ir::reachable_subprogram(*source_, function);
    const MultiCriteriaCompiler candidates(reachable, *core_, sim_);
    std::map<PassConfig, Objectives> scored;
    support::Rng rng(options.seed);
    const EvalFn eval = [&](const Genome& genome) {
        const PassConfig config = decode(genome, options.explore_security);
        auto it = scored.find(config);
        if (it == scored.end()) {
            const TaskVersion version = candidates.compile(function, config);
            it = scored
                     .emplace(config, Objectives{version.time_s,
                                                 version.energy_j,
                                                 version.leakage})
                     .first;
        }
        return it->second;
    };

    MooRun run;
    switch (options.engine) {
        case Engine::kFpa: {
            FpaParams params;
            params.population = options.population;
            params.iterations = options.iterations;
            run = fpa_optimise(eval, kGenomeDims, params, rng);
            break;
        }
        case Engine::kNsga2: {
            Nsga2Params params;
            params.population = options.population;
            params.generations = options.iterations;
            run = nsga2_optimise(eval, kGenomeDims, params, rng);
            break;
        }
        case Engine::kWeightedSum: {
            WeightedSumParams params;
            params.restarts = std::max(1, options.population / 2);
            params.iterations = options.iterations * 4;
            run = weighted_sum_optimise(eval, kGenomeDims, params, rng);
            break;
        }
    }

    // Materialise versions from the front plus the traditional baseline, on
    // the whole program: reports, wire frames and certificates embed it.
    std::vector<TaskVersion> versions;
    versions.reserve(run.front.size() + 1);
    for (const auto& solution : run.front)
        versions.push_back(compile(
            function, decode(solution.genome, options.explore_security)));
    versions.push_back(compile(function, traditional_config()));

    // Non-dominated filter over the materialised set (the baseline may be
    // dominated; keep it only if it survives).
    std::vector<Solution> as_solutions;
    as_solutions.reserve(versions.size());
    for (const auto& version : versions)
        as_solutions.push_back(Solution{
            {}, {version.time_s, version.energy_j, version.leakage}});
    const auto keep = pareto_indices(as_solutions);
    std::vector<TaskVersion> front;
    front.reserve(keep.size());
    for (const auto i : keep) front.push_back(std::move(versions[i]));

    // Deduplicate identical objective vectors (different genomes can decode
    // to the same config) and cap the version count.
    std::sort(front.begin(), front.end(),
              [](const TaskVersion& a, const TaskVersion& b) {
                  return a.time_s < b.time_s;
              });
    front.erase(std::unique(front.begin(), front.end(),
                            [](const TaskVersion& a, const TaskVersion& b) {
                                return a.time_s == b.time_s &&
                                       a.energy_j == b.energy_j &&
                                       a.leakage == b.leakage;
                            }),
                front.end());
    if (front.size() > options.max_versions) {
        // Thin uniformly, always keeping the fastest and, when there is room
        // for two, the most frugal.
        std::vector<TaskVersion> thinned;
        const double step =
            options.max_versions == 1
                ? 0.0
                : static_cast<double>(front.size() - 1) /
                      static_cast<double>(options.max_versions - 1);
        for (std::size_t k = 0; k < options.max_versions; ++k)
            thinned.push_back(
                front[static_cast<std::size_t>(std::round(step * k))]);
        front = std::move(thinned);
    }
    return front;
}

}  // namespace teamplay::compiler
