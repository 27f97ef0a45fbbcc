// Non-functional Properties Contract System (Brown et al. [15], Barwell &
// Brown [16]).
//
// The paper's contract system proves, with dependent types, that each point
// of interest respects its ETS budgets, and emits a certificate usable as
// certification evidence.  We reproduce the essential structure: every
// contract check carries a *proof object* — a tree of inference-rule
// applications (instruction cost, sequence, alternative, loop, call, unit
// scaling) whose leaves are cost-table facts and whose root is the claimed
// bound.  An independent checker (`verify_certificate`) re-derives every
// node arithmetically, so a certificate cannot claim a bound its own proof
// does not support.  Measured estimates (complex flow) are admitted through
// an explicit kMeasured rule and flagged, mirroring the weaker guarantee the
// paper's dynamic workflow provides.
#pragma once

#include <string>
#include <vector>

#include "ir/program.hpp"
#include "platform/platform.hpp"

namespace teamplay::contracts {

enum class Property : std::uint8_t { kTime, kEnergy, kSecurity };

[[nodiscard]] std::string_view property_name(Property property);

enum class ProofRule : std::uint8_t {
    kInstrCost,  ///< leaf: summed cost-table entries of one basic block
    kOverhead,   ///< leaf: structural overhead (branch/loop/call)
    kSeq,        ///< value = sum(children)
    kAlt,        ///< value = max(children)
    kLoop,       ///< value = param * child (param = static loop bound)
    kCall,       ///< value = sum(children): overhead + callee bound
    kScale,      ///< value = param * child (unit/frequency/power scaling)
    kMeasured,   ///< leaf: profiled estimate (weaker guarantee, flagged)
    kStaticLeak, ///< leaf: taint-analysis leakage proxy
};

[[nodiscard]] std::string_view rule_name(ProofRule rule);

struct ProofNode {
    ProofRule rule = ProofRule::kInstrCost;
    double value = 0.0;   ///< bound established by this node
    double param = 1.0;   ///< multiplier for kLoop / kScale
    std::string note;
    std::vector<ProofNode> children;
};

/// Re-derive a proof tree bottom-up; true when every internal node's value
/// follows from its children under its rule (relative tolerance 1e-9).
[[nodiscard]] bool verify_proof(const ProofNode& node);

struct ContractResult {
    std::string poi;       ///< point of interest (task name)
    Property property = Property::kTime;
    double budget = 0.0;
    double analysed = 0.0;
    bool holds = false;
    bool measured_only = false;  ///< bound rests on kMeasured evidence
    ProofNode proof;
};

struct Certificate {
    std::string app;
    std::string platform;
    std::vector<ContractResult> results;

    [[nodiscard]] bool all_hold() const {
        for (const auto& result : results)
            if (!result.holds) return false;
        return true;
    }
    /// True when every holding bound is statically proven (no kMeasured).
    [[nodiscard]] bool fully_static() const {
        for (const auto& result : results)
            if (result.measured_only) return false;
        return true;
    }
    [[nodiscard]] std::string to_text() const;
};

/// Full arithmetic re-check: every proof tree verifies, every result's
/// `analysed` equals its proof root, and `holds` is consistent with the
/// budget comparison.
[[nodiscard]] bool verify_certificate(const Certificate& certificate);

// -- proof construction -------------------------------------------------------

/// Build the WCET proof (in cycles) for a function on a predictable core,
/// through the fold wcet::Analyser runs (wcet/fold.hpp).  Throws
/// std::invalid_argument for an undefined function or a complex core.
[[nodiscard]] ProofNode build_time_proof_cycles(const ir::Program& program,
                                                const std::string& function,
                                                const isa::TargetModel& model);

/// Wrap a cycles proof into seconds at an operating point.
[[nodiscard]] ProofNode scale_to_seconds(ProofNode cycles_proof,
                                         double freq_hz);

/// Build the WCEC proof (in joules): dynamic pJ tree scaled by V^2 and 1e-12
/// plus static power times `time_s`, the function's time proof in seconds
/// at the same OPP (scale_to_seconds over build_time_proof_cycles), which
/// a caller checking both budgets builds once.  Throws like
/// build_time_proof_cycles.
[[nodiscard]] ProofNode build_energy_proof_joules(
    const ir::Program& program, const std::string& function,
    const platform::Core& core, std::size_t opp_index, ProofNode time_s);

/// Leaf proof for a measured estimate.
[[nodiscard]] ProofNode measured_leaf(double value, const std::string& note);

/// Leaf proof for the static leakage proxy.
[[nodiscard]] ProofNode leakage_leaf(double proxy, const std::string& note);

}  // namespace teamplay::contracts
