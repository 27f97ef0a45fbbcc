// Static energy analysis (the EnergyAnalyser plug-in of Fig. 1).
//
// Bounds the worst-case energy consumption (WCEC) of a task with the same
// fold as the WCET analysis (wcet/fold.hpp), priced with the
// per-instruction-class dynamic energy tables.  Static (leakage) energy is
// added as static_power * WCET, and the data-dependent power component is
// bounded by assuming worst-case operand Hamming weight on every
// instruction — so the bound is sound with respect to the simulator's
// energy charging.
#pragma once

#include <string>

#include "ir/program.hpp"
#include "platform/platform.hpp"
#include "wcet/analyser.hpp"
#include "wcet/fold.hpp"

namespace teamplay::energy {

struct EnergyResult {
    bool analysable = false;
    double wcec_j = 0.0;      ///< worst-case dynamic + static energy bound
    double wce_dynamic_j = 0.0;
    double wce_static_j = 0.0;
    /// The WCET bound the static term was priced with (set when
    /// analysable), so a caller needing both bounds folds cycles once.
    wcet::WcetResult wcet;
    std::string reason;
};

class Analyser {
public:
    explicit Analyser(const ir::Program& program)
        : program_(&program), wcet_(program) {}

    [[nodiscard]] EnergyResult analyse(const std::string& function,
                                       const platform::Core& core,
                                       std::size_t opp_index) const;

private:
    const ir::Program* program_;
    wcet::Analyser wcet_;
};

/// Worst-case operand Hamming weight assumed by the WCEC bound.  The machine
/// charges alpha * popcount(value) with value a 64-bit word, so 64 bits is
/// the sound ceiling.
inline constexpr double kWorstHammingBits = 64.0;

/// Worst-case dynamic energy prices at nominal voltage, in pJ: each
/// instruction class's table entry plus its data term at kWorstHammingBits.
[[nodiscard]] wcet::Prices worst_energy_prices(const isa::TargetModel& model);

}  // namespace teamplay::energy
