// Helpers for lowering region trees into flat execution traces.
//
// The simulator's trace tier (sim::TraceCompiler) flattens a function and
// everything it calls into one pre-decoded instruction stream.  The two
// queries it needs — which functions are reachable, and how many charge
// events one execution produces — are properties of the IR alone, so they
// live here where other flatteners (a future native translator, the power
// trace pre-reservation in sim::Machine) can share them.  The compiler's
// search uses the same reachability walk to cut a program down to one
// entry's call graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace teamplay::ir {

/// Fills `out` with the entry function followed by every transitively
/// called function, in deterministic first-encounter pre-order (the same
/// traversal `structural_fingerprint` canonicalises over).  Each function
/// appears once even when the call graph revisits it, so the walk
/// terminates on any program — including invalid cyclic ones.  Returns
/// false (leaving `out` with the functions found so far) when the entry or
/// any reachable callee is undefined; callers that need the interpreter's
/// runtime error surface fall back instead of lowering.
[[nodiscard]] bool reachable_functions(const Program& program,
                                       const std::string& entry,
                                       std::vector<const Function*>& out);

/// A copy of `program` holding only the functions `reachable_functions`
/// finds from `entry`, with the same `memory_words`.  Code that only follows
/// calls from `entry` sees no difference; the compiler's search scores its
/// candidates on this copy (DESIGN.md §14).
[[nodiscard]] Program reachable_subprogram(const Program& program,
                                           const std::string& entry);

/// Upper-bound estimate of the charge events (power-trace samples) one
/// execution of `fn` produces: every instruction, branch, loop iteration
/// and call charges exactly once, so the estimate walks the tree taking
/// the static trip (or the bound, for dynamic loops) and the wider side of
/// every If.  Saturates instead of overflowing; a missing callee counts
/// only its call overhead.  Used to reserve RunResult::power_trace up
/// front so the tracing hot path never reallocates mid-run.
[[nodiscard]] std::int64_t estimate_charges(const Program& program,
                                            const Function& fn);

}  // namespace teamplay::ir
