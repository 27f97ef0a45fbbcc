// Memoised analysis results shared across pipeline stages and scenarios.
//
// Every expensive per-(task entry, core class, OPP) computation of the
// toolchain — a multi-criteria compiled Pareto front, a PowProfiler
// measurement campaign, a taint analysis — is a pure function of the source
// program and a handful of option values.  The cache keys on exactly that
// tuple plus an `AnalysisKind` discriminator and an options fingerprint.
// The program component is the *structural fingerprint* of the entry
// function's reachable sub-program (ir::structural_fingerprint), not
// whole-program identity, so a batch re-analyses each key once no matter
// how many platform/option variations it sweeps — and scenarios from
// *different* applications that embed the same kernel share the memoised
// result too (cross-program memoisation).
//
// Concurrency: lookups are single-flight.  The first requester of a key
// computes the value while later requesters block on a shared future, so a
// worker pool hammering the same key does the work once and all observers
// see one identical result (a prerequisite for the engine's determinism
// guarantee).
//
// Bounding: a long-lived service cannot let the cache grow without limit.
// An optional `Budget` (max resident entries and/or max resident cost)
// turns the cache into an LRU: completed entries are kept on a recency
// list, a hit refreshes recency, and admission evicts from the cold end
// until the budget holds again.  In-flight slots (compute still running)
// are *never* evicted — eviction only considers completed entries — so
// single-flight semantics survive any budget, including one smaller than a
// single entry (which simply makes that entry uncached after its waiters
// are served).  Eviction changes only *when* a value is recomputed, never
// the value: results stay byte-identical under any budget.
//
// Lower tiers: an optional ResultStore (result_store.hpp) and an optional
// remote fetch hook, both fixed at construction.  A miss consults the store,
// then the fabric peer, then computes; a store hit or a fetched result is
// checksum-verified and strictly decoded, and is admitted exactly as if
// computed, so single-flight semantics, eviction and determinism are
// untouched.  The store has one write point: the thread that owns a miss
// appends the result it computed or fetched right after publishing and
// admitting it, and a store hit is never written back.  Eviction is memory
// management only and never touches the store, so a process that dies
// without a shutdown has already persisted everything it computed.  The
// store is shared: several caches (engines) and several processes can
// point at one directory, which is how a restarted or sibling service
// warm-starts.  Store corruption is never fatal — a rejected frame is
// counted and the entry recomputed.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "profiler/pow_profiler.hpp"

namespace teamplay::core {

class ResultStore;

/// What a cache entry holds.
enum class AnalysisKind : std::uint8_t {
    kCompiledFront,  ///< multi-criteria compiler Pareto front (static flow)
    kProfile,        ///< PowProfiler measurement campaign (complex flow)
    kTaint,          ///< static leakage proxy of an entry function
};

[[nodiscard]] std::string_view analysis_kind_name(AnalysisKind kind);

struct EvaluationKey {
    /// Canonical structural fingerprint of the entry function's reachable
    /// sub-program (see `ir::structural_fingerprint`), *not* whole-program
    /// identity: two applications embedding the same kernel produce the
    /// same fingerprint, so memoised fronts/profiles/taints are shared
    /// across programs.  Deliberately not a pointer: a long-lived engine
    /// must not serve stale results when a freed program's address is
    /// reused by a new one.
    std::uint64_t structural_fp = 0;
    std::string entry;              ///< task entry function
    std::string core_class;         ///< "" for program-wide analyses
    std::size_t opp_index = 0;      ///< 0 when the kind spans all OPPs
    AnalysisKind kind = AnalysisKind::kCompiledFront;
    std::uint64_t params = 0;       ///< fingerprint of influencing options

    auto operator<=>(const EvaluationKey&) const = default;
};

/// Content hash of a whole program (its canonical textual dump).  Not part
/// of any EvaluationKey, whose program component is the entry's
/// `ir::structural_fingerprint`: the shard router falls back to it when a
/// request has no spec to name a primary kernel.
[[nodiscard]] std::uint64_t fingerprint_program(const ir::Program& program);

/// One memoised result; only the member matching the key's kind is set.
struct EvaluationResult {
    std::shared_ptr<const std::vector<compiler::TaskVersion>> front;
    profiler::TaskProfile profile;
    double leakage = 0.0;
};

/// Relative retention weight of a result: 1 for a scalar entry plus 1 per
/// compiled version held (each TaskVersion owns a transformed program
/// clone, the dominant memory of the cache).
[[nodiscard]] double evaluation_result_cost(const EvaluationResult& result);

class EvaluationCache {
public:
    using Compute = std::function<EvaluationResult()>;

    /// Remote cache tier (net/remote_shard.hpp): asks a fabric peer for a
    /// result it may already hold.  Returns nullopt on a peer miss; any
    /// transport failure must be swallowed by the callable or it is treated
    /// as a miss — a flaky peer can never fail a lookup, only slow it.
    using RemoteFetch =
        std::function<std::optional<EvaluationResult>(const EvaluationKey&)>;

    /// Retention budget: `max_entries` bounds completed resident entries
    /// (0 = unbounded).
    struct Budget {
        std::size_t max_entries = 0;
    };

    EvaluationCache() = default;
    /// `store` (may be null) persists computed and fetched results across
    /// processes; `remote_fetch` (may be empty) is the fabric tier.  Both
    /// are fixed for the cache's lifetime, so no lock guards either.
    explicit EvaluationCache(Budget budget,
                             std::shared_ptr<ResultStore> store = nullptr,
                             RemoteFetch remote_fetch = {})
        : budget_(budget),
          store_(std::move(store)),
          remote_fetch_(std::move(remote_fetch)) {}

    /// Return the result for `key`, invoking `compute` exactly once per
    /// *resident generation* of the key across all threads (an evicted key
    /// recomputes on its next lookup).  A compute that throws propagates to
    /// every waiter and leaves the key uncached so it can be retried.
    [[nodiscard]] std::shared_ptr<const EvaluationResult> lookup(
        const EvaluationKey& key, const Compute& compute);

    /// One consistent snapshot: every field is read under the same lock, so
    /// `entries` is the live entry count at the moment `hits`/`misses`/
    /// `evictions` were sampled (no stale mixtures).
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;   ///< entries dropped to hold the budget
        /// Result-store traffic of *this cache* (all zero without an
        /// attached store).  A store hit is also a cache miss — the miss
        /// was served by decoding instead of computing; `store_misses`
        /// counts the misses that had to compute, so "recomputes of
        /// previously stored keys" is exactly this counter on a warm run.
        std::uint64_t store_hits = 0;
        std::uint64_t store_misses = 0;
        /// Results this cache appended to the store: computed or
        /// fetched ones, never a store hit.
        std::uint64_t spills = 0;
        std::uint64_t store_rejects = 0;  ///< corrupt frames → recomputed
        /// Remote-fetch traffic (all zero without a fetch hook): misses
        /// that the store could not serve ask a fabric peer before
        /// computing.  `remote_misses` counts the lookups that then had to
        /// compute locally, so "recomputes of results a peer held" is
        /// exactly zero remote misses on a fully warmed fabric.
        std::uint64_t remote_hits = 0;
        std::uint64_t remote_misses = 0;
        std::size_t entries = 0;       ///< live entries (incl. in-flight)
        double resident_cost = 0.0;    ///< summed cost of completed entries

        [[nodiscard]] double hit_ratio() const {
            const auto total = hits + misses;
            return total > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(total)
                             : 0.0;
        }

        /// Fold another snapshot in (commutative, like StageTelemetry's
        /// merge): counters and gauges sum, so per-remote snapshots
        /// aggregate into one service-wide view without ad-hoc summing in
        /// callers.
        void merge(const Stats& other);

        /// Counter delta since an earlier snapshot of the *same* cache:
        /// hits/misses/evictions subtract, while `entries`/`resident_cost`
        /// (point-in-time gauges) keep this snapshot's values.
        [[nodiscard]] Stats since(const Stats& before) const;
    };

    [[nodiscard]] Stats stats() const;

    /// Completed-entry probe for serving a peer's fetch: returns the value
    /// when `key` is resident and ready, else consults the attached store
    /// directly (nothing is admitted, no LRU refresh, no counters — a
    /// peer's probe must not perturb this cache's own statistics or
    /// retention).  Null on a genuine miss; never computes, never blocks
    /// on an in-flight slot.
    [[nodiscard]] std::shared_ptr<const EvaluationResult> peek(
        const EvaluationKey& key) const;

private:
    using Slot = std::shared_future<std::shared_ptr<const EvaluationResult>>;

    struct Entry {
        Slot slot;
        double cost = 0.0;
        bool ready = false;                       ///< compute finished
        std::list<EvaluationKey>::iterator lru{}; ///< valid iff ready
    };

    /// Mark `key` completed, put it at the hot end of the LRU list, and
    /// evict cold completed entries until the budget holds.
    void admit(const EvaluationKey& key, double cost);

    Budget budget_;
    /// The lower tiers, immutable after construction: read without a lock
    /// (the store has its own internal synchronisation, and a fetch is a
    /// blocking RPC invoked outside the cache lock).
    const std::shared_ptr<ResultStore> store_;
    const RemoteFetch remote_fetch_;
    mutable std::mutex mutex_;
    std::map<EvaluationKey, Entry> entries_;
    std::list<EvaluationKey> lru_;  ///< completed keys, hot front, cold back
    /// The counters and `resident_cost`; `entries` is read off `entries_`
    /// when a snapshot is taken.
    Stats stats_;
};

}  // namespace teamplay::core
