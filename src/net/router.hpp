// Router: a structural-fingerprint routing domain over remote shard
// servers (DESIGN.md §8, §11).
//
// A host runs exactly one ScenarioEngine; local callers drive it directly.
// The routing domain earns its keep across hosts: every scenario submitted
// to a Router crosses the wire to one of its remotes (a ShardServer per
// endpoint), and nothing runs in this process.
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
// The router keeps the engine's method names — `submit` (the in-flight RPC
// of the remote it routes to), `run`, `run_all` and `stats`, here one
// commutative fold over the remotes' stats RPCs — so a caller can drive
// either type through one generic body.
//
// Determinism: every cache key folds in every byte that can influence
// engine output, so whichever remote computes a key, the observable report
// bytes are identical to a local engine's on the same batch.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "net/remote_shard.hpp"

namespace teamplay::net {

/// The remote cache tier for ScenarioEngine::Options::remote_fetch over
/// fabric peers ("host:port" each): the first peer holding a key serves it,
/// and a transport failure counts as a miss.  The callable owns its peer
/// clients; the engine keeps it in its cache, which outlives the engine's
/// workers, so no lookup outlives a peer.  Throws std::invalid_argument for
/// an endpoint of another shape or a port outside [1, 65535].
[[nodiscard]] core::EvaluationCache::RemoteFetch fetch_from(
    const std::vector<std::string>& endpoints);

class Router {
public:
    using Completion = core::ScenarioEngine::Completion;

    /// One remote per endpoint, numbered in endpoint order.  Throws
    /// std::invalid_argument for an empty list or a malformed endpoint;
    /// connections are lazy, so an unreachable endpoint surfaces
    /// per-ticket, not here.
    explicit Router(const std::vector<std::string>& endpoints);

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Route one scenario and send it.  Same contract as
    /// ScenarioEngine::submit: the request and the completion are
    /// forwarded untouched to the routed remote (a CSL-only request is
    /// parsed transiently for routing, then parsed for real inside the
    /// remote engine's parse stage, so stage telemetry and the error
    /// surface match a local engine; malformed CSL and a missing program
    /// surface through the ticket).
    [[nodiscard]] core::ScenarioTicket submit(core::ScenarioRequest request,
                                              Completion on_complete = {});

    /// Execute one scenario synchronously (wrapper over `submit`).
    [[nodiscard]] core::ToolchainReport run(
        const core::ScenarioRequest& request);

    /// Execute a batch.  Reports come back in request order; the first
    /// scenario error is rethrown after the batch drains.  `stats` workers
    /// and cache and admission counters fold the remotes' snapshots taken
    /// before and after the batch (deltas for the counters; a remote
    /// unreachable at either edge adds nothing), telemetry folds the
    /// per-report laps, and `admission.remote_failures` carries the
    /// per-remote failure gauges.
    [[nodiscard]] std::vector<core::ToolchainReport> run_all(
        std::span<const core::ScenarioRequest> requests,
        core::BatchStats* stats = nullptr);

    /// Size of the routing domain.
    [[nodiscard]] std::size_t shard_count() const { return remotes_.size(); }

    /// The remote `request` routes to — a pure function of the request's
    /// program and task entries (exposed so benches and tests can attribute
    /// per-remote behaviour).
    [[nodiscard]] std::size_t shard_of(
        const core::ScenarioRequest& request) const;

    /// One stats RPC per remote, folded: workers, cache and admission
    /// counters and server-side stage laps sum over the reachable remotes
    /// (an unreachable one adds nothing); the client-side net/* laps are
    /// folded in (only this side records them, so nothing double-counts),
    /// and `admission.remote_failures[i]` is remote i's consecutive-
    /// failure gauge, in endpoint order.
    [[nodiscard]] core::BatchStats stats() const;

private:
    std::vector<std::unique_ptr<RemoteShard>> remotes_;
};

}  // namespace teamplay::net
