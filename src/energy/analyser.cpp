#include "energy/analyser.hpp"

namespace teamplay::energy {

wcet::Prices worst_energy_prices(const isa::TargetModel& model) {
    wcet::Prices prices;
    for (std::size_t cls = 0; cls < prices.instr.size(); ++cls)
        prices.instr[cls] =
            model.energy_of(static_cast<isa::InstrClass>(cls)) +
            model.data_alpha_pj_per_bit * kWorstHammingBits;
    prices.branch = model.branch_energy_pj;
    prices.loop_iter = model.loop_iter_energy_pj;
    prices.call = model.call_energy_pj;
    return prices;
}

EnergyResult Analyser::analyse(const std::string& function,
                               const platform::Core& core,
                               std::size_t opp_index) const {
    EnergyResult result;
    if (!core.model.predictable) {
        result.reason = "core '" + core.name +
                        "' has no static energy model (complex architecture); "
                        "use the dynamic profiler";
        return result;
    }
    const ir::Function* fn = program_->find(function);
    if (fn == nullptr) {
        result.reason = "undefined function '" + function + "'";
        return result;
    }

    const auto& point = core.opp(opp_index);
    const double scale = core.energy_scale(point);
    wcet::BoundRules rules;
    const double worst_pj = wcet::fold(*program_, *fn->body,
                                       worst_energy_prices(core.model), rules);

    // The checks above are the WCET analyser's own, so this bound exists.
    result.wcet = wcet_.analyse(function, core, opp_index);
    result.analysable = true;
    result.wce_dynamic_j = worst_pj * scale * 1e-12;
    result.wce_static_j = point.static_power_w * result.wcet.time_s;
    result.wcec_j = result.wce_dynamic_j + result.wce_static_j;
    return result;
}

}  // namespace teamplay::energy
