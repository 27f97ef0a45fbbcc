// Ablation A1: the multi-objective search engine (DESIGN.md §5.4).
//
// The paper's compiler uses the Flower Pollination Algorithm for
// multi-objective optimisation (Jadhav & Falk [5]).  This bench compares FPA
// against NSGA-II and the traditional weighted-sum hill climber on the real
// compiler configuration space (pill_encrypt on the Cortex-M0), reporting
// hypervolume (bigger = better front), front size and evaluation budget.
#include <cstdio>

#include "compiler/moo.hpp"
#include "compiler/multi_criteria.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

struct EngineResult {
    const char* name;
    double hypervolume = 0.0;
    std::size_t front_size = 0;
    int evaluations = 0;
};

void print_table() {
    const auto app = make_camera_pill_app();
    const auto& m0 = app.platform.cores[0];
    const compiler::MultiCriteriaCompiler mcc(app.program, m0);

    // Shared evaluation function over the real configuration space.
    const compiler::EvalFn eval = [&mcc](const compiler::Genome& genome) {
        const auto version =
            mcc.compile("pill_encrypt", mcc.decode(genome, true));
        return compiler::Objectives{version.time_s * 1e3,
                                    version.energy_j * 1e3,
                                    version.leakage};
    };

    // Reference point for hypervolume: the traditional config, worsened.
    const auto traditional =
        mcc.compile("pill_encrypt", mcc.traditional_config());
    const compiler::Objectives ref = {traditional.time_s * 1e3 * 1.5,
                                      traditional.energy_j * 1e3 * 1.5,
                                      traditional.leakage + 8.0};

    std::vector<EngineResult> results;
    {
        support::Rng rng(42);
        compiler::FpaParams params;
        params.population = 12;
        params.iterations = 14;
        const auto run = compiler::fpa_optimise(eval, compiler::kGenomeDims,
                                                params, rng);
        std::vector<compiler::Objectives> front;
        for (const auto& s : run.front) front.push_back(s.objectives);
        support::Rng hv_rng(1);
        results.push_back({"FPA (paper's engine [5])",
                           compiler::hypervolume(front, ref, 30000, hv_rng),
                           run.front.size(), run.evaluations});
    }
    {
        support::Rng rng(42);
        compiler::Nsga2Params params;
        params.population = 12;
        params.generations = 14;
        const auto run = compiler::nsga2_optimise(
            eval, compiler::kGenomeDims, params, rng);
        std::vector<compiler::Objectives> front;
        for (const auto& s : run.front) front.push_back(s.objectives);
        support::Rng hv_rng(1);
        results.push_back({"NSGA-II",
                           compiler::hypervolume(front, ref, 30000, hv_rng),
                           run.front.size(), run.evaluations});
    }
    {
        support::Rng rng(42);
        compiler::WeightedSumParams params;
        params.restarts = 6;
        params.iterations = 28;
        const auto run = compiler::weighted_sum_optimise(
            eval, compiler::kGenomeDims, params, rng);
        std::vector<compiler::Objectives> front;
        for (const auto& s : run.front) front.push_back(s.objectives);
        support::Rng hv_rng(1);
        results.push_back({"weighted-sum (traditional)",
                           compiler::hypervolume(front, ref, 30000, hv_rng),
                           run.front.size(), run.evaluations});
    }

    std::puts("=== A1: multi-objective engine ablation (pill_encrypt/M0) ===");
    std::printf("%-30s %14s %8s %8s\n", "engine", "hypervolume", "front",
                "evals");
    for (const auto& result : results)
        std::printf("%-30s %14.4g %8zu %8d\n", result.name,
                    result.hypervolume, result.front_size,
                    result.evaluations);
    std::printf("expected shape: population-based engines (FPA, NSGA-II) "
                "cover more of the\nfront than scalarisation at a similar "
                "budget; FPA is competitive with NSGA-II\n\n");
}

}  // namespace

int main() {
    print_table();
    return 0;
}
