#include "wcet/analyser.hpp"

#include "wcet/fold.hpp"

namespace teamplay::wcet {

WcetResult Analyser::analyse(const std::string& function,
                             const platform::Core& core,
                             std::size_t opp_index) const {
    WcetResult result;
    if (!core.model.predictable) {
        result.reason = "core '" + core.name +
                        "' is not statically analysable (out-of-order "
                        "pipeline / caches); use the dynamic profiler";
        return result;
    }
    const ir::Function* fn = program_->find(function);
    if (fn == nullptr) {
        result.reason = "undefined function '" + function + "'";
        return result;
    }
    BoundRules rules;
    result.analysable = true;
    result.cycles = fold(*program_, *fn->body, cycle_prices(core.model), rules);
    result.time_s = result.cycles / core.opp(opp_index).freq_hz;
    return result;
}

}  // namespace teamplay::wcet
