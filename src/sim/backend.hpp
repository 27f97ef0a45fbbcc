// Simulator execution-tier selection.
//
// The machine has two execution tiers (DESIGN.md §9): the pre-decoded
// threaded-dispatch trace tier, which is the production simulator, and the
// recursive tree-walking interpreter, which is the reference semantics and
// the fallback for programs that cannot be lowered.  Both tiers produce
// bit-identical RunResults — the tier only changes how fast the crank
// turns, never what comes out.
//
// Selection is explicit: owners that build machines internally — the
// PowProfiler, the multi-criteria compiler, the scenario engine — take a
// SimOptions, the same way the engine shares its EvaluationCache.  The
// interpreter runs only where a caller asks for it with
// `SimOptions{SimBackend::kInterp, …}` (tests, the fuzz oracle,
// bench_sim_backend).
#pragma once

#include <cstdint>
#include <memory>

namespace teamplay::sim {

class TraceCache;

enum class SimBackend : std::uint8_t {
    kInterp,  ///< recursive tree-walking interpreter (reference tier)
    kTrace,   ///< pre-decoded threaded-dispatch traces, interp fallback
};

/// Backend selection plus the trace cache to share, threaded through the
/// components that construct machines internally.  A null cache with the
/// trace backend means the process-wide cache (TraceCache::process_wide).
struct SimOptions {
    SimBackend backend = SimBackend::kTrace;
    std::shared_ptr<TraceCache> trace_cache;
};

}  // namespace teamplay::sim
