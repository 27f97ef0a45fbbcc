// RemoteShard: a shard that happens to live in another process.
//
// `submit → ScenarioTicket` keeps the engine's ticket semantics exactly:
// the in-flight RPC *is* the ticket (minted through the engine's
// external-ticket hooks with no pool behind it), `cancel()` sends the
// cancel RPC, and a dropped connection fails the ticket with
// RemoteShardError — a subclass of the retryable CancelledError class, so
// existing retry loops cover transport loss without learning a new
// exception type.  Reconnection uses capped exponential backoff; a send
// onto a connection that died since the last exchange gets one
// reconnect-and-resend before the ticket fails.
//
// Every completed round trip records three per-hop laps — "net/encode"
// (request serialisation), "net/rtt" (frame out to reply frame in) and
// "net/decode" (report deserialisation) — into the returned report's
// stage_laps and into `transport_telemetry()`, which a net::Router folds
// into its service-wide StageTelemetry.  The client also keeps the
// remote's consecutive-failure gauge (`consecutive_failures()`), since
// its reply handler is the one place that sees how each submit ended.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_engine.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace teamplay::net {

/// Transport-level ticket failure.  Derives from the engine's retryable
/// cancellation class: the scenario did not fail, this attempt did.
class RemoteShardError : public core::CancelledError {
public:
    explicit RemoteShardError(const std::string& message)
        : core::CancelledError(RawMessage{},
                               "remote shard unavailable: " + message) {}
};

class RemoteShard {
public:
    struct Options {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;
        /// Connection establishment: attempts before giving up, with
        /// exponential backoff between them, capped.
        int connect_attempts = 5;
        double initial_backoff_s = 0.01;
        double max_backoff_s = 0.25;
    };

    explicit RemoteShard(Options options);
    ~RemoteShard();

    RemoteShard(const RemoteShard&) = delete;
    RemoteShard& operator=(const RemoteShard&) = delete;

    /// Ship the scenario to the remote engine; the returned ticket behaves
    /// exactly like a local one (wait/get/cancel, completion callback on
    /// the reader thread).  The request's program and platform must stay
    /// alive until the ticket completes, as with ScenarioEngine::submit.
    /// Never throws: a request without program or platform fails its
    /// ticket with std::invalid_argument before anything is sent (same
    /// contract as the engine), and transport failures fail it with
    /// RemoteShardError.
    [[nodiscard]] core::ScenarioTicket submit(
        core::ScenarioRequest request,
        core::ScenarioEngine::Completion on_complete = {});

    /// Ask the remote cache for a result it may hold (kFetch RPC).
    /// Nullopt on a peer miss *and* on any transport failure — shaped for
    /// EvaluationCache::RemoteFetch, where the fabric must never fail a
    /// lookup.
    [[nodiscard]] std::optional<core::EvaluationResult> fetch(
        const core::EvaluationKey& key);

    /// The remote engine's `stats()` snapshot (kStats RPC); nullopt when
    /// the shard is unreachable.
    [[nodiscard]] std::optional<core::BatchStats> stats();

    /// Cheap liveness probe: true when a connection is up, or when one
    /// single connect attempt (no backoff) succeeds.  A live-looking
    /// half-open connection counts as healthy — the probe never sends
    /// traffic; the first real exchange flushes out stale liveness.
    /// Groundwork for health-checked rerouting in the shard router.
    [[nodiscard]] bool healthy();

    /// Client-side per-hop laps (net/encode, net/rtt, net/decode) across
    /// every completed round trip.
    [[nodiscard]] core::StageTelemetry transport_telemetry() const;

    /// Submits in a row that failed with RemoteShardError.  Any other
    /// completion — a report, a cancel, a shed, even an error reply —
    /// proves the remote alive and resets it; a request refused before
    /// sending (no program or platform) leaves it alone.
    [[nodiscard]] std::uint64_t consecutive_failures() const {
        return failures_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::string endpoint() const {
        return options_.host + ":" + std::to_string(options_.port);
    }

private:
    using Clock = std::chrono::steady_clock;
    /// Reply handler: called exactly once with the reply envelope, or with
    /// nullptr and a failure description when the request can no longer be
    /// answered.
    using Handler = std::function<void(Envelope*, const std::string&)>;

    struct Connection {
        Socket socket;
    };
    struct Pending {
        std::shared_ptr<Connection> conn;  ///< generation the send used
        Handler handler;
    };

    /// Register `handler` under `id` and send `frame`, reconnecting (with
    /// backoff) as needed and retrying the send once on a connection that
    /// died since the last exchange.  Never throws: failures route to the
    /// handler exactly once, outside the send lock.
    void transact(std::uint64_t id, const core::wire::Buffer& frame,
                  Handler handler,
                  const std::shared_ptr<Clock::time_point>& sent_at);

    /// Requires send_mutex_.  Returns the live connection, establishing
    /// one (attempts × backoff) if necessary; throws TransportError with
    /// the plain cause when the endpoint stays unreachable (the submit
    /// handler names the endpoint once).  `attempts_override` > 0 caps
    /// the connect attempts for this call (healthy() probes with 1).
    [[nodiscard]] std::shared_ptr<Connection> ensure_connected(
        int attempts_override = 0);

    void reader_loop(const std::shared_ptr<Connection>& conn);
    void drop_connection(const std::shared_ptr<Connection>& conn);
    /// Remove the pending entry for `id`; true when this call removed it
    /// (the caller then owns invoking its handler).
    [[nodiscard]] bool take_pending(std::uint64_t id);
    void send_cancel(std::uint64_t id);

    Options options_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> failures_{0};
    /// Coarse: serialises connect/reconnect/frame-send sequences so the
    /// connection generation cannot change under a sender.  Never held
    /// while a handler (and thus user code) runs.
    std::mutex send_mutex_;
    /// Leaf lock: pending map, live connection pointer, telemetry,
    /// shutdown flag.
    mutable std::mutex mutex_;
    std::shared_ptr<Connection> conn_;
    std::map<std::uint64_t, Pending> pending_;
    core::StageTelemetry telemetry_;
    bool stopped_ = false;
    /// Every connection ever opened (for shutdown) and every reader
    /// thread (for join); both bounded by the reconnect count.
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> readers_;
};

}  // namespace teamplay::net
