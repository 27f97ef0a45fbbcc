#include "core/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "csl/csl.hpp"
#include "ir/fingerprint.hpp"
#include "net/remote_shard.hpp"
#include "support/units.hpp"

namespace teamplay::core {

namespace {

/// Finalising mix (splitmix64): the structural fingerprint is
/// well-distributed in the high bits but the modulo below consumes the low
/// ones, so stir before reducing.
std::uint64_t stir(std::uint64_t value) {
    value += 0x9E3779B97F4A7C15ULL;
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
    value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
    return value ^ (value >> 31);
}

std::uint64_t routing_fingerprint(const ir::Program* program,
                                  const csl::AppSpec* spec) {
    if (program == nullptr) return 0;  // unreachable: shard_of pins these
    // Route by the *primary kernel* — the first task's entry (a pipeline's
    // source stage).  Applications that share their front kernels (the
    // cross-program memoisation case) then colocate even though their
    // tails differ, which a fold over every entry would scatter.
    if (spec != nullptr && !spec->tasks.empty())
        return ir::structural_fingerprint(*program,
                                          spec->tasks.front().entry);
    // No spec available (unparsed or unparsable CSL): fall back to program
    // content so routing stays deterministic; the remote reports any CSL
    // error through the ticket.
    return fingerprint_program(*program);
}

net::RemoteShard::Options parse_endpoint(const std::string& endpoint) {
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == endpoint.size())
        throw std::invalid_argument(
            "remote shard endpoint must be host:port, got \"" + endpoint +
            "\"");
    std::uint64_t port = 0;
    if (!support::parse_count(std::string_view(endpoint).substr(colon + 1),
                              65535, port) ||
        port == 0)
        throw std::invalid_argument(
            "remote shard endpoint has an invalid port: \"" + endpoint +
            "\"");
    net::RemoteShard::Options options;
    options.host = endpoint.substr(0, colon);
    options.port = static_cast<std::uint16_t>(port);
    return options;
}

}  // namespace

ShardedScenarioEngine::ShardedScenarioEngine(Options options) {
    // Validate and build the remote clients first so a malformed endpoint
    // throws before the local engine (and its pool) is spun up.
    remote_failures_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        options.remote_endpoints.size());  // value-initialised: all zero
    remotes_.reserve(options.remote_endpoints.size());
    for (const auto& endpoint : options.remote_endpoints)
        remotes_.push_back(
            std::make_unique<net::RemoteShard>(parse_endpoint(endpoint)));
    fetch_peers_.reserve(options.fetch_peers.size());
    for (const auto& endpoint : options.fetch_peers)
        fetch_peers_.push_back(
            std::make_unique<net::RemoteShard>(parse_endpoint(endpoint)));

    // The remotes are the whole routing domain: no local engine.
    if (!remotes_.empty()) return;
    engine_ = std::make_unique<ScenarioEngine>(std::move(options.engine));
    if (!fetch_peers_.empty()) {
        // First hit wins; peers never throw (transport failures are
        // swallowed into misses inside RemoteShard::fetch).  The raw
        // pointers stay valid for the engine's whole lifetime — the peer
        // vector is declared before the engine and destroyed after it.
        std::vector<net::RemoteShard*> peers;
        peers.reserve(fetch_peers_.size());
        for (const auto& peer : fetch_peers_) peers.push_back(peer.get());
        engine_->set_remote_fetch(
            [peers](const EvaluationKey& key)
                -> std::optional<EvaluationResult> {
                for (net::RemoteShard* peer : peers)
                    if (auto result = peer->fetch(key)) return result;
                return std::nullopt;
            });
    }
}

ShardedScenarioEngine::~ShardedScenarioEngine() = default;

std::size_t ShardedScenarioEngine::shard_of(
    const ScenarioRequest& request) const {
    // Nothing to route with one shard: skip the transient parse and the
    // fingerprint walk entirely (the local engine, the CLI default).
    if (shard_count() == 1) return 0;
    // A malformed request is pinned to shard 0, which reports the error
    // through its ticket.
    if (request.program == nullptr) return 0;
    // A request carrying only CSL source is parsed into a transient spec
    // for routing; the request itself is forwarded untouched, so the
    // scenario's own parse runs inside the remote engine's parse stage
    // (identical stage telemetry and error surface to a local engine).
    // A malformed source routes on program content and the remote raises
    // the CslError into the ticket.
    const csl::AppSpec* spec =
        request.spec.has_value() ? &*request.spec : nullptr;
    std::optional<csl::AppSpec> transient;
    if (spec == nullptr && !request.csl_source.empty()) {
        try {
            transient = csl::parse(request.csl_source);
            spec = &*transient;
        } catch (const csl::CslError&) {
        }
    }
    return stir(routing_fingerprint(request.program, spec)) %
           shard_count();
}

ScenarioTicket ShardedScenarioEngine::submit(ScenarioRequest request,
                                             Completion on_complete) {
    if (engine_ != nullptr)
        return engine_->submit(std::move(request), std::move(on_complete));
    const std::size_t remote = shard_of(request);
    // Health bookkeeping rides the completion: a transport failure
    // (RemoteShardError) bumps the remote's consecutive-failure gauge;
    // any completed exchange — a report, a server-side shed, a cancel,
    // even a server error reply — proves the remote alive and resets it.
    // A request refused before it was sent (std::invalid_argument) says
    // nothing about the remote.
    std::atomic<std::uint64_t>* failures = &remote_failures_[remote];
    return remotes_[remote]->submit(
        std::move(request),
        [failures, on_complete = std::move(on_complete)](
            const ScenarioOutcome& outcome) {
            try {
                if (outcome.error) std::rethrow_exception(outcome.error);
                failures->store(0, std::memory_order_relaxed);
            } catch (const net::RemoteShardError&) {
                failures->fetch_add(1, std::memory_order_relaxed);
            } catch (const std::invalid_argument&) {
            } catch (...) {
                failures->store(0, std::memory_order_relaxed);
            }
            if (on_complete) on_complete(outcome);
        });
}

ToolchainReport ShardedScenarioEngine::run(const ScenarioRequest& request) {
    return submit(request).get();
}

std::vector<ToolchainReport> ShardedScenarioEngine::run_all(
    std::span<const ScenarioRequest> requests, BatchStats* stats) {
    if (engine_ != nullptr) return engine_->run_all(requests, stats);

    std::vector<std::optional<BatchStats>> before;
    if (stats != nullptr) {
        before.reserve(remotes_.size());
        for (const auto& remote : remotes_) before.push_back(remote->stats());
    }
    const auto start = std::chrono::steady_clock::now();

    std::vector<ScenarioTicket> tickets;
    tickets.reserve(requests.size());
    for (const auto& request : requests) tickets.push_back(submit(request));

    std::vector<ToolchainReport> reports(requests.size());
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        try {
            reports[i] = tickets[i].get();
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }

    if (stats != nullptr) {
        stats->scenarios = requests.size();
        stats->workers = concurrency();
        stats->wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        stats->scenarios_per_s =
            stats->wall_s > 0.0
                ? static_cast<double>(requests.size()) / stats->wall_s
                : 0.0;
        // Each remote contributes the delta of two stats RPCs; a remote
        // that was unreachable at either edge contributes nothing rather
        // than a bogus delta.
        stats->cache = {};
        stats->admission = {};
        for (std::size_t i = 0; i < remotes_.size(); ++i) {
            if (!before[i].has_value()) continue;
            const auto after = remotes_[i]->stats();
            if (after.has_value()) {
                stats->cache.merge(after->cache.since(before[i]->cache));
                stats->admission.merge(
                    after->admission.since(before[i]->admission));
            }
        }
        // The per-remote consecutive-failure gauges ride along so a batch
        // caller sees transport health without a second accessor.
        stats->admission.remote_failures.resize(
            std::max(stats->admission.remote_failures.size(),
                     remotes_.size()),
            0);
        for (std::size_t i = 0; i < remotes_.size(); ++i)
            stats->admission.remote_failures[i] +=
                remote_failures_[i].load(std::memory_order_relaxed);
        // Remote reports carry their server-side stage laps plus the
        // client-side net/* hop laps, so one fold covers both sides.
        for (const auto& report : reports)
            stats->stage_telemetry.merge(report.stage_laps);
    }
    if (first_error) std::rethrow_exception(first_error);
    return reports;
}

AdmissionStats ShardedScenarioEngine::admission_stats() const {
    if (engine_ != nullptr) return engine_->admission_stats();
    AdmissionStats folded;
    for (const auto& remote : remotes_)
        if (const auto stats = remote->stats())
            folded.merge(stats->admission);
    // This front's transport-health gauges, in endpoint order.  The merge
    // above sums element-wise, so remote-side entries (normally empty — a
    // server engine has no remotes) would stack under ours; acceptable
    // for a gauge vector documented as "this front's view".
    AdmissionStats gauges;
    gauges.remote_failures.reserve(remotes_.size());
    for (std::size_t i = 0; i < remotes_.size(); ++i)
        gauges.remote_failures.push_back(
            remote_failures_[i].load(std::memory_order_relaxed));
    folded.merge(gauges);
    return folded;
}

EvaluationCache::Stats ShardedScenarioEngine::cache_stats() const {
    if (engine_ != nullptr) return engine_->cache_stats();
    EvaluationCache::Stats folded;
    for (const auto& remote : remotes_)
        if (const auto stats = remote->stats()) folded.merge(stats->cache);
    return folded;
}

StageTelemetry ShardedScenarioEngine::stage_telemetry() const {
    if (engine_ != nullptr) return engine_->stage_telemetry();
    StageTelemetry folded;
    for (const auto& remote : remotes_) {
        // Server-side pipeline stages and client-side transport hops are
        // disjoint lap sets (net/* laps are only ever recorded on this
        // side), so folding both never double-counts.
        if (const auto stats = remote->stats())
            folded.merge(stats->stage_telemetry);
        folded.merge(remote->transport_telemetry());
    }
    return folded;
}

std::size_t ShardedScenarioEngine::concurrency() const {
    if (engine_ != nullptr) return engine_->concurrency();
    std::size_t total = 0;
    for (const auto& remote : remotes_)
        if (const auto stats = remote->stats()) total += stats->workers;
    return total;
}

void ShardedScenarioEngine::flush_result_store() {
    if (engine_ != nullptr) engine_->flush_result_store();
}

void ShardedScenarioEngine::clear_caches() {
    if (engine_ != nullptr) engine_->clear_cache();
}

}  // namespace teamplay::core
