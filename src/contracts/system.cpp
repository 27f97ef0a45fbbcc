#include "contracts/system.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace teamplay::contracts {

namespace {

void require_static_evidence(const ContractInput& input) {
    if (input.program == nullptr || input.core == nullptr)
        throw std::invalid_argument("contract input for '" + input.poi +
                                    "' lacks program/core for static proof");
}

}  // namespace

Certificate check_contracts(const std::string& app,
                            const std::string& platform_name,
                            const std::vector<ContractInput>& inputs) {
    Certificate certificate;
    certificate.app = app;
    certificate.platform = platform_name;

    for (const auto& input : inputs) {
        // One time proof per static input: the time contract's proof and
        // the static term of the energy proof.
        std::optional<ProofNode> time_s;
        if (!input.measured_only &&
            (input.time_budget_s >= 0.0 || input.energy_budget_j >= 0.0)) {
            require_static_evidence(input);
            time_s = scale_to_seconds(
                build_time_proof_cycles(*input.program, input.function,
                                        input.core->model),
                input.core->opp(input.opp_index).freq_hz);
        }

        if (input.time_budget_s >= 0.0) {
            ContractResult result;
            result.poi = input.poi;
            result.property = Property::kTime;
            result.budget = input.time_budget_s;
            if (input.measured_only) {
                result.proof = measured_leaf(
                    input.measured_time_s,
                    "profiled high-water mark for " + input.function);
                result.measured_only = true;
            } else {
                result.proof = input.energy_budget_j >= 0.0
                                   ? *time_s
                                   : std::move(*time_s);
            }
            result.analysed = result.proof.value;
            result.holds = result.analysed <= result.budget;
            certificate.results.push_back(std::move(result));
        }

        if (input.energy_budget_j >= 0.0) {
            ContractResult result;
            result.poi = input.poi;
            result.property = Property::kEnergy;
            result.budget = input.energy_budget_j;
            if (input.measured_only) {
                result.proof = measured_leaf(
                    input.measured_energy_j,
                    "profiled high-water mark for " + input.function);
                result.measured_only = true;
            } else {
                result.proof = build_energy_proof_joules(
                    *input.program, input.function, *input.core,
                    input.opp_index, std::move(*time_s));
            }
            result.analysed = result.proof.value;
            result.holds = result.analysed <= result.budget;
            certificate.results.push_back(std::move(result));
        }

        if (input.leakage_budget >= 0.0) {
            ContractResult result;
            result.poi = input.poi;
            result.property = Property::kSecurity;
            result.budget = input.leakage_budget;
            result.proof = leakage_leaf(
                input.leakage_proxy,
                "taint-analysis leakage proxy for " + input.function);
            result.analysed = result.proof.value;
            result.holds = result.analysed <= result.budget;
            certificate.results.push_back(std::move(result));
        }
    }
    return certificate;
}

}  // namespace teamplay::contracts
