// RemoteShard: a shard that happens to live in another process.
//
// `submit → ScenarioTicket` keeps the engine's ticket semantics exactly:
// the in-flight RPC *is* the ticket (minted through the engine's
// external-ticket hooks with no pool behind it), `cancel()` sends the
// cancel RPC, and a dropped connection fails the ticket with
// RemoteShardError — a subclass of the retryable CancelledError class, so
// existing retry loops cover transport loss without learning a new
// exception type.
//
// One connection lifecycle (DESIGN.md §11): a request that finds no live
// connection makes one connect attempt, and a refused one fails the
// request at once; retrying is the caller's.  Before reusing the live
// connection the client checks that the peer has not hung up, and if it
// has, connects afresh, while the old connection's reader drains the
// replies already queued on it and fails the rest.  A request is
// registered only while its connection is still the live one, so the
// reader that retires a connection answers or fails every request sent
// on it; nothing is resent.  A connection whose reader has ended is
// joined and closed when the next one opens, or by the destructor.
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

    /// Cheap liveness probe: true when a connection whose peer has not
    /// hung up is open, or when the one connect attempt every request
    /// makes succeeds.  The probe never sends traffic.
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
        std::thread reader;
        /// Set by the reader as its last act: the connection can be
        /// joined and closed.
        std::atomic<bool> finished{false};
    };
    struct Pending {
        std::shared_ptr<Connection> conn;  ///< the connection the send used
        Handler handler;
    };

    /// Register `handler` under `id` on the live connection and send
    /// `frame`.  Never throws: failures route to the handler exactly once,
    /// outside the send lock.  `sent_at`, when given, is stamped just
    /// before the send.
    void transact(std::uint64_t id, const core::wire::Buffer& frame,
                  Handler handler, Clock::time_point* sent_at);

    /// One blocking request: the reply envelope, or nullopt when the
    /// request could not be answered.
    [[nodiscard]] std::optional<Envelope> round_trip(
        MsgType type, core::wire::Buffer payload);

    /// Requires send_mutex_.  Returns the live connection unless its peer
    /// has hung up; otherwise retires it, joins and closes the connections
    /// whose readers have ended, and makes one connect attempt, throwing
    /// TransportError with the plain cause when that fails (the submit
    /// handler names the endpoint once).
    [[nodiscard]] std::shared_ptr<Connection> connection();

    void reader_loop(const std::shared_ptr<Connection>& conn);
    void send_cancel(std::uint64_t id);

    Options options_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> failures_{0};
    /// Coarse: serialises connects (one attempt at a time) and frame
    /// sends (whole frames on the socket).  Never held while a handler
    /// (and thus user code) runs.
    std::mutex send_mutex_;
    /// Leaf lock: pending map, live connection pointer, open connections,
    /// telemetry, shutdown flag.
    mutable std::mutex mutex_;
    std::shared_ptr<Connection> conn_;
    std::map<std::uint64_t, Pending> pending_;
    core::StageTelemetry telemetry_;
    bool stopped_ = false;
    /// Every connection not yet joined and closed: the live one and those
    /// retired since the last connect.
    std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace teamplay::net
