#include "net/router.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "csl/csl.hpp"
#include "ir/fingerprint.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace teamplay::net {

namespace {

std::uint64_t routing_fingerprint(const ir::Program& program,
                                  const csl::AppSpec* spec) {
    // Route by the *primary kernel* — the first task's entry (a pipeline's
    // source stage).  Applications that share their front kernels (the
    // cross-program memoisation case) then colocate even though their
    // tails differ, which a fold over every entry would scatter.
    if (spec != nullptr && !spec->tasks.empty())
        return ir::structural_fingerprint(program, spec->tasks.front().entry);
    // No spec available (unparsed or unparsable CSL): fall back to program
    // content so routing stays deterministic; the remote reports any CSL
    // error through the ticket.
    return core::fingerprint_program(program);
}

RemoteShard::Options parse_endpoint(const std::string& endpoint) {
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
    RemoteShard::Options options;
    options.host = endpoint.substr(0, colon);
    options.port = static_cast<std::uint16_t>(port);
    return options;
}

/// Fold each remote's consecutive-failure gauge into `admission`, in
/// endpoint order.  merge() sums element-wise, so remote-side entries
/// (normally empty: a served engine has no remotes) would stack under
/// these.
void fold_failure_gauges(
    const std::vector<std::unique_ptr<RemoteShard>>& remotes,
    core::AdmissionStats& admission) {
    core::AdmissionStats gauges;
    gauges.remote_failures.reserve(remotes.size());
    for (const auto& remote : remotes)
        gauges.remote_failures.push_back(remote->consecutive_failures());
    admission.merge(gauges);
}

}  // namespace

core::EvaluationCache::RemoteFetch fetch_from(
    const std::vector<std::string>& endpoints) {
    // Shared, not unique: the cache copies its fetch hook per lookup.
    auto peers = std::make_shared<std::vector<std::unique_ptr<RemoteShard>>>();
    peers->reserve(endpoints.size());
    for (const auto& endpoint : endpoints)
        peers->push_back(
            std::make_unique<RemoteShard>(parse_endpoint(endpoint)));
    // First hit wins; RemoteShard::fetch swallows transport failures into
    // misses, so a peer never fails a lookup.
    return [peers = std::move(peers)](const core::EvaluationKey& key)
               -> std::optional<core::EvaluationResult> {
        for (const auto& peer : *peers)
            if (auto result = peer->fetch(key)) return result;
        return std::nullopt;
    };
}

Router::Router(const std::vector<std::string>& endpoints) {
    if (endpoints.empty())
        throw std::invalid_argument("a router needs at least one endpoint");
    remotes_.reserve(endpoints.size());
    for (const auto& endpoint : endpoints)
        remotes_.push_back(
            std::make_unique<RemoteShard>(parse_endpoint(endpoint)));
}

std::size_t Router::shard_of(const core::ScenarioRequest& request) const {
    // Nothing to route with one remote: skip the transient parse and the
    // fingerprint walk.  A request without a program is pinned to remote
    // 0, whose client fails its ticket before sending anything.
    if (remotes_.size() == 1 || request.program == nullptr) return 0;
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
    // The structural fingerprint is well distributed in the high bits but
    // the modulo consumes the low ones, so stir before reducing.
    std::uint64_t state = routing_fingerprint(*request.program, spec);
    return support::splitmix64(state) % remotes_.size();
}

core::ScenarioTicket Router::submit(core::ScenarioRequest request,
                                    Completion on_complete) {
    const std::size_t remote = shard_of(request);
    return remotes_[remote]->submit(std::move(request),
                                    std::move(on_complete));
}

core::ToolchainReport Router::run(const core::ScenarioRequest& request) {
    return submit(request).get();
}

std::vector<core::ToolchainReport> Router::run_all(
    std::span<const core::ScenarioRequest> requests,
    core::BatchStats* stats) {
    std::vector<std::optional<core::BatchStats>> before;
    if (stats != nullptr) {
        before.reserve(remotes_.size());
        for (const auto& remote : remotes_) before.push_back(remote->stats());
    }
    const auto start = std::chrono::steady_clock::now();

    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(requests.size());
    for (const auto& request : requests) tickets.push_back(submit(request));

    std::vector<core::ToolchainReport> reports(requests.size());
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
        stats->wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        stats->scenarios_per_s =
            stats->wall_s > 0.0
                ? static_cast<double>(requests.size()) / stats->wall_s
                : 0.0;
        // Each remote contributes its workers and the delta of two stats
        // RPCs; a remote that was unreachable at either edge contributes
        // nothing rather than a bogus delta.
        stats->workers = 0;
        stats->cache = {};
        stats->admission = {};
        for (std::size_t i = 0; i < remotes_.size(); ++i) {
            if (!before[i].has_value()) continue;
            const auto after = remotes_[i]->stats();
            if (!after.has_value()) continue;
            stats->workers += after->workers;
            stats->cache.merge(after->cache.since(before[i]->cache));
            stats->admission.merge(
                after->admission.since(before[i]->admission));
        }
        fold_failure_gauges(remotes_, stats->admission);
        // Remote reports carry their server-side stage laps plus the
        // client-side net/* hop laps, so one fold covers both sides.
        for (const auto& report : reports)
            stats->stage_telemetry.merge(report.stage_laps);
    }
    if (first_error) std::rethrow_exception(first_error);
    return reports;
}

core::BatchStats Router::stats() const {
    core::BatchStats folded;
    for (const auto& remote : remotes_) {
        if (const auto snapshot = remote->stats()) {
            folded.workers += snapshot->workers;
            folded.cache.merge(snapshot->cache);
            folded.stage_telemetry.merge(snapshot->stage_telemetry);
            folded.admission.merge(snapshot->admission);
        }
        folded.stage_telemetry.merge(remote->transport_telemetry());
    }
    fold_failure_gauges(remotes_, folded.admission);
    return folded;
}

}  // namespace teamplay::net
