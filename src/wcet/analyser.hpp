// Static Worst-Case Execution Time analysis (the aiT stand-in of Fig. 1).
//
// Folds the structured IR with cycle prices (wcet/fold.hpp): blocks sum
// their instruction latencies, alternatives take the worse branch, loops
// multiply the body by the static bound, and calls add the callee bound
// (memoised; recursion is rejected by IR validation).  On predictable cores
// the resulting bound is *sound and exact for the worst path* because the
// simulator charges the same cost tables.  On complex cores the analysis
// refuses — static WCET is meaningless there (Sec. II-B) — and reports why,
// which is the signal the toolchain uses to switch to the dynamic-profiling
// workflow.
#pragma once

#include <string>

#include "ir/program.hpp"
#include "platform/platform.hpp"

namespace teamplay::wcet {

struct WcetResult {
    bool analysable = false;
    double cycles = 0.0;
    double time_s = 0.0;
    std::string reason;  ///< filled when !analysable
};

class Analyser {
public:
    explicit Analyser(const ir::Program& program) : program_(&program) {}

    /// Bound the WCET of `function` on `core` at operating point `opp_index`.
    [[nodiscard]] WcetResult analyse(const std::string& function,
                                     const platform::Core& core,
                                     std::size_t opp_index) const;

private:
    const ir::Program* program_;
};

}  // namespace teamplay::wcet
