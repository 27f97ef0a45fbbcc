// Experiment E6: cross-host shard fabric — the Poisson service trace
// replayed through loopback remote shards.
//
// The same mixed-app arrival trace as E5 (uav/pill/rover round-robin,
// seeded exponential gaps) is driven through three topologies: the
// in-process engine, one loopback remote shard, and two
// loopback remote shards — each remote a real ShardServer on an ephemeral
// TCP port with the full wire path (request frame encode, length-prefixed
// transport, strict decode, reply frame) in the loop.  Completion-latency
// p50/p95 is reported per topology, and the per-hop transport laps
// (net/encode, net/rtt, net/decode) the client records are checked for
// every round trip; perfbench's remote_warm workload times them.
//
// Gates (any violation exits non-zero; the CI bench-smoke step relies on
// it):
//   * every topology's certificates are byte-identical to the in-process
//     run — the wire adds latency, never drift;
//   * every scenario that crossed the wire recorded its three hop laps;
//   * in the remote-fetch phase, a cold local engine pointed at a warm
//     fabric peer serves every miss from the peer's cache: remote_misses
//     == 0 (zero recomputes of results the peer held) and remote_hits
//     covers the peer's warm keys.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;
using namespace teamplay::usecases;

namespace {

struct Trace {
    std::vector<UseCaseApp> apps;  ///< owns programs/platforms
    std::vector<core::ScenarioRequest> requests;  ///< arrival order
    std::vector<double> gaps_s;                   ///< inter-arrival times
};

/// 30 arrivals, mean inter-arrival 3 ms — the E5 shape, sized so the
/// three-topology sweep plus the fetch phase stays within bench-smoke
/// budget.
Trace make_trace(std::uint64_t seed = 11) {
    Trace trace;
    trace.apps.push_back(make_uav_app("apalis-tk1"));
    trace.apps.push_back(make_camera_pill_app());
    trace.apps.push_back(make_rover_app("apalis-tk1"));

    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> arrival(1.0 / 0.003);
    for (int i = 0; i < 30; ++i) {
        const auto& app = trace.apps[static_cast<std::size_t>(i) %
                                     trace.apps.size()];
        core::ScenarioRequest request;
        request.program = &app.program;
        request.platform = &app.platform;
        request.csl_source = app.csl_source;
        request.options.compiler.population = 6;
        request.options.compiler.iterations = 6;
        request.options.profile_runs = 8;
        request.options.scheduler.anneal_iterations = 80;
        request.label = app.name + "#" + std::to_string(i);
        trace.requests.push_back(std::move(request));
        trace.gaps_s.push_back(arrival(rng));
    }
    return trace;
}

struct Percentiles {
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

Percentiles percentiles(std::vector<double> latencies_s) {
    std::sort(latencies_s.begin(), latencies_s.end());
    const auto at = [&](double q) {
        const auto index = static_cast<std::size_t>(
            q * static_cast<double>(latencies_s.size() - 1));
        return 1e3 * latencies_s[index];
    };
    return {at(0.50), at(0.95)};
}

struct ReplayOutcome {
    std::vector<double> latencies_s;
    std::vector<std::string> certificates;  ///< canonical text, trace order
    core::BatchStats stats;  ///< the front's snapshot after the replay
};

/// `front`: a ScenarioEngine or a net::Router.
ReplayOutcome replay(const Trace& trace, auto& front) {
    std::mutex mutex;
    ReplayOutcome outcome;
    outcome.latencies_s.assign(trace.requests.size(), 0.0);

    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(trace.requests.size());
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(trace.gaps_s[i]));
        const auto arrival = std::chrono::steady_clock::now();
        tickets.push_back(front.submit(
            trace.requests[i],
            [&outcome, &mutex, i, arrival](const core::ScenarioOutcome&) {
                const double latency =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - arrival)
                        .count();
                const std::lock_guard<std::mutex> lock(mutex);
                outcome.latencies_s[i] = latency;
            }));
    }
    for (auto& ticket : tickets) ticket.wait();
    outcome.certificates.reserve(tickets.size());
    for (auto& ticket : tickets)
        outcome.certificates.push_back(ticket.get().certificate.to_text());
    outcome.stats = front.stats();
    return outcome;
}

/// N loopback ShardServers on ephemeral ports plus a router that sends
/// everything across the wire.
ReplayOutcome replay_remote(const Trace& trace, std::size_t remote_count,
                            std::size_t workers_per_remote) {
    std::vector<std::unique_ptr<net::ShardServer>> servers;
    std::vector<std::string> endpoints;
    for (std::size_t i = 0; i < remote_count; ++i) {
        net::ShardServer::Options server_options;
        server_options.engine.worker_threads = workers_per_remote;
        servers.push_back(
            std::make_unique<net::ShardServer>(std::move(server_options)));
        endpoints.push_back("127.0.0.1:" +
                            std::to_string(servers.back()->port()));
    }
    net::Router router(endpoints);
    return replay(trace, router);
}

std::uint64_t lap_count(const core::StageTelemetry& telemetry,
                        const std::string& stage) {
    const auto it = telemetry.stages().find(stage);
    return it != telemetry.stages().end() ? it->second.count : 0;
}

/// Warm one fabric peer over the wire, then replay the trace on a cold
/// local engine whose only help is that peer's cache.
bool run_fetch_phase(const Trace& trace, const ReplayOutcome& baseline) {
    net::ShardServer::Options server_options;
    server_options.engine.worker_threads = 2;
    net::ShardServer server(std::move(server_options));
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(server.port());

    {
        net::Router warmer({endpoint});
        (void)replay(trace, warmer);
    }

    core::ScenarioEngine fetcher(
        {.worker_threads = 2, .remote_fetch = net::fetch_from({endpoint})});
    const auto fetched = replay(trace, fetcher);

    const bool identical = fetched.certificates == baseline.certificates;
    const bool zero_recomputes = fetched.stats.cache.remote_misses == 0;
    const bool peer_served = fetched.stats.cache.remote_hits > 0;

    std::printf("fetch phase: %llu remote hits / %llu remote misses "
                "(certificates %s)\n",
                static_cast<unsigned long long>(fetched.stats.cache.remote_hits),
                static_cast<unsigned long long>(
                    fetched.stats.cache.remote_misses),
                identical ? "identical" : "DIFFER");
    if (!zero_recomputes)
        std::printf("fetch FAIL: %llu misses recomputed results the warm "
                    "peer held\n",
                    static_cast<unsigned long long>(
                        fetched.stats.cache.remote_misses));
    if (!peer_served)
        std::printf("fetch FAIL: the warm peer served nothing\n");
    if (!identical)
        std::printf(
            "fetch FAIL: fetched certificates differ from in-process\n");
    return identical && zero_recomputes && peer_served;
}

bool print_table() {
    const auto trace = make_trace();
    std::printf("=== E6: remote shard fabric, %zu Poisson arrivals over "
                "loopback TCP ===\n",
                trace.requests.size());

    core::ScenarioEngine local({.worker_threads = 4});
    const auto baseline = replay(trace, local);
    const auto base_stats = percentiles(baseline.latencies_s);
    std::printf("in-process:      p50 %8.2f ms, p95 %8.2f ms\n",
                base_stats.p50_ms, base_stats.p95_ms);

    bool ok = true;
    for (const std::size_t remotes : {1UL, 2UL}) {
        const auto outcome = replay_remote(trace, remotes, 4 / remotes);
        const auto stats = percentiles(outcome.latencies_s);
        const bool identical =
            outcome.certificates == baseline.certificates;
        // Exactly one hop per scenario, whatever the topology: the rtt
        // lap count proves every scenario's transport was measured.
        const bool laps_complete =
            lap_count(outcome.stats.stage_telemetry, "net/rtt") ==
                trace.requests.size() &&
            lap_count(outcome.stats.stage_telemetry, "net/encode") ==
                trace.requests.size() &&
            lap_count(outcome.stats.stage_telemetry, "net/decode") ==
                trace.requests.size();
        std::printf("%zu remote shard%s: p50 %8.2f ms, p95 %8.2f ms "
                    "(certificates %s, hop laps %s)\n",
                    remotes, remotes == 1 ? " " : "s", stats.p50_ms,
                    stats.p95_ms, identical ? "identical" : "DIFFER",
                    laps_complete ? "complete" : "MISSING");
        if (!identical)
            std::printf("remote FAIL: certificates drifted across the "
                        "wire (%zu remotes)\n",
                        remotes);
        if (!laps_complete)
            std::printf("remote FAIL: per-hop laps incomplete "
                        "(%zu remotes)\n",
                        remotes);
        ok = ok && identical && laps_complete;
    }
    return run_fetch_phase(trace, baseline) && ok;
}

}  // namespace

int main() {
    // Certificate drift across the wire, a missing hop lap, or a fetch
    // miss against a warm peer all fail the process: the CI bench-smoke
    // step relies on this exit code.
    return print_table() ? 0 : 1;
}
