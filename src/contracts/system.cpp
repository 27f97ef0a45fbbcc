#include "contracts/system.hpp"

#include <stdexcept>

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
                require_static_evidence(input);
                result.proof = scale_to_seconds(
                    build_time_proof_cycles(*input.program, input.function,
                                            input.core->model),
                    input.core->opp(input.opp_index).freq_hz);
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
                require_static_evidence(input);
                result.proof = build_energy_proof_joules(
                    *input.program, input.function, *input.core,
                    input.opp_index);
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
