// Service front: one local ScenarioEngine per host, or a
// structural-fingerprint router over remote shards (DESIGN.md §8).
//
// A host runs exactly one engine — one cache and one pool.  Splitting them
// across in-process shards never won: every local shard count above one
// measured slower on batches and no faster on service traces, because the
// worker split idles threads that one shared pool would use (DESIGN.md
// §8).  The routing domain earns its keep across hosts instead: with
// remote endpoints configured, the remotes are the whole domain and every
// scenario crosses the wire to one of them.
//
// The router hashes the canonical structural fingerprint of a scenario's
// *primary kernel* — its first task's entry function
// (ir::structural_fingerprint, the same quantity the EvaluationCache keys
// on) — so every scenario that analyses the same kernels lands on the
// remote whose cache is already warm, whatever application, platform or
// options it arrives with; two applications sharing their pipeline front
// (UAV and rover) colocate even though their tails differ.  Routing is a
// pure function of the request's program + spec, so it is stable across
// processes and restarts.
//
// The front keeps the single-engine service surface: `submit` returns the
// local engine's own ScenarioTicket or the in-flight RPC of the remote it
// routes to; `run` / `run_all` wrap submission; the stats accessors are
// the local engine's, or commutative folds over the remotes' stats RPCs.
//
// Determinism: every cache key folds in every byte that can influence
// engine output, so whichever remote computes a key, the observable report
// bytes are identical to a local engine's on the same batch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"

namespace teamplay::net {
class RemoteShard;
}  // namespace teamplay::net

namespace teamplay::core {

class ShardedScenarioEngine {
public:
    struct Options {
        /// The local engine: workers, cache budget, result store,
        /// simulator tier and admission.  Unused when remote endpoints are
        /// set — each remote's server configures its own engine (deadlines
        /// travel with the request, queue depths do not).
        ScenarioEngine::Options engine;
        /// Cross-host shards, "host:port" each (a ShardServer per entry).
        /// When set they are the whole routing domain: no local engine or
        /// pool is built and every scenario crosses the wire.
        std::vector<std::string> remote_endpoints;
        /// Fabric peers whose caches the local engine consults (first hit
        /// wins) when it misses both its memory tier and the result store —
        /// before recomputing.  A warm peer therefore turns a cold local
        /// miss into a remote hit with zero recomputes.  Peers are *not*
        /// routing targets; unreachable peers degrade to misses.
        std::vector<std::string> fetch_peers;
    };

    using Completion = ScenarioEngine::Completion;

    ShardedScenarioEngine() : ShardedScenarioEngine(Options{}) {}
    /// Throws std::invalid_argument for a malformed remote endpoint (the
    /// required shape is "host:port"); remote connections themselves are
    /// lazy, so an unreachable endpoint surfaces per-ticket, not here.
    explicit ShardedScenarioEngine(Options options);
    ~ShardedScenarioEngine();

    ShardedScenarioEngine(const ShardedScenarioEngine&) = delete;
    ShardedScenarioEngine& operator=(const ShardedScenarioEngine&) = delete;

    /// Route one scenario and enqueue it.  Same contract as
    /// ScenarioEngine::submit: the request is forwarded untouched (a
    /// CSL-only request is parsed transiently for routing, then parsed for
    /// real inside the engine's parse stage, so stage telemetry and the
    /// error surface match the local engine; malformed CSL and a missing
    /// program surface through the ticket).
    [[nodiscard]] ScenarioTicket submit(ScenarioRequest request,
                                        Completion on_complete = {});

    /// Execute one scenario synchronously (wrapper over `submit`).
    [[nodiscard]] ToolchainReport run(const ScenarioRequest& request);

    /// Execute a batch.  Reports come back in request order; the first
    /// scenario error is rethrown after the batch drains.  Across remotes,
    /// `stats` cache and admission counters are the fold of per-remote
    /// deltas and telemetry the fold of per-report laps.
    [[nodiscard]] std::vector<ToolchainReport> run_all(
        std::span<const ScenarioRequest> requests,
        BatchStats* stats = nullptr);

    /// Size of the routing domain: the remote count, or 1 for the local
    /// engine.
    [[nodiscard]] std::size_t shard_count() const {
        return remotes_.empty() ? 1 : remotes_.size();
    }

    /// The shard `request` routes to — a pure function of the request's
    /// program and task entries (exposed so benches and tests can attribute
    /// per-remote behaviour); remotes are numbered in endpoint order.
    [[nodiscard]] std::size_t shard_of(const ScenarioRequest& request) const;

    /// Admission counters.  Across remotes: the fold of their server-side
    /// counters via the stats RPC (an unreachable remote contributes
    /// nothing), and `remote_failures[i]` carries this front's
    /// consecutive-transport-failure gauge for remote i, in endpoint
    /// order — groundwork for health-checked rerouting.
    [[nodiscard]] AdmissionStats admission_stats() const;

    /// Cache snapshot.  Across remotes: the fold of their server-side
    /// counters via the stats RPC; an unreachable remote contributes
    /// nothing.
    [[nodiscard]] EvaluationCache::Stats cache_stats() const;

    /// Cumulative per-stage telemetry.  Across remotes this folds the
    /// server-side stage laps (stats RPC) *and* the client-side transport
    /// laps (net/encode, net/rtt, net/decode) — the transport laps exist
    /// only on this side, so nothing double-counts.
    [[nodiscard]] StageTelemetry stage_telemetry() const;

    /// Spill the local engine's completed cache entries to its result
    /// store (no-op without one).  Remotes flush into their own stores on
    /// their side of the wire.
    void flush_result_store();

    /// Threads that can execute work: the local engine's workers plus the
    /// caller, or every reachable remote's advertised worker count.
    [[nodiscard]] std::size_t concurrency() const;

    /// The local engine's cache only; remote caches belong to their
    /// process.
    void clear_caches();

private:
    /// Consecutive transport failures per remote (reset by any completed
    /// exchange, including server-side sheds and error replies — those
    /// prove the remote alive).  Declared *before* `remotes_` so it
    /// outlives the remotes' reader threads, whose completion callbacks
    /// update it during teardown.
    std::unique_ptr<std::atomic<std::uint64_t>[]> remote_failures_;
    /// Remotes and fetch peers are declared before the engine so the
    /// engine is destroyed *first*: a draining local scenario may still
    /// consult a fetch peer from its compute path.
    std::vector<std::unique_ptr<net::RemoteShard>> remotes_;
    std::vector<std::unique_ptr<net::RemoteShard>> fetch_peers_;
    /// The local engine; null when remote endpoints are set.
    std::unique_ptr<ScenarioEngine> engine_;
};

}  // namespace teamplay::core
