#include "net/remote_shard.hpp"

#include <algorithm>
#include <future>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace teamplay::net {

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string payload_text(const core::wire::Buffer& payload) {
    return {payload.begin(), payload.end()};
}

}  // namespace

RemoteShard::RemoteShard(Options options) : options_(std::move(options)) {}

RemoteShard::~RemoteShard() {
    std::vector<std::shared_ptr<Connection>> connections;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
        connections.swap(connections_);
    }
    for (const auto& connection : connections)
        connection->socket.shutdown_both();
    // Each reader fails the pendings of its connection on the way out, so
    // every outstanding ticket completes before destruction finishes.
    for (const auto& connection : connections) connection->reader.join();
}

core::ScenarioTicket RemoteShard::submit(
    core::ScenarioRequest request, core::ScenarioEngine::Completion on_complete) {
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    if (request.program == nullptr || request.platform == nullptr) {
        // Fail the ticket, not the call, exactly as the engine does; the
        // request never reaches the wire.
        auto state = core::detail::make_external_ticket(
            id, std::move(request), std::move(on_complete), {});
        core::detail::complete_external_ticket(
            *state, {},
            std::make_exception_ptr(std::invalid_argument(
                "ScenarioRequest requires a program and a platform")),
            /*cancelled=*/false);
        return core::detail::wrap_external_ticket(state);
    }

    const auto encode_start = Clock::now();
    Envelope envelope;
    envelope.id = id;
    envelope.type = MsgType::kSubmit;
    envelope.payload = core::wire::encode(request);
    const double encode_s = seconds_since(encode_start);
    const auto frame = encode_envelope(envelope);

    auto state = core::detail::make_external_ticket(
        id, std::move(request), std::move(on_complete),
        [this, id] { send_cancel(id); });

    auto sent_at = std::make_shared<Clock::time_point>(Clock::now());
    Handler handler = [this, state, encode_s, sent_at](
                          Envelope* reply, const std::string& failure) {
        // A transport failure bumps the consecutive-failure gauge; any
        // answer from the server proves the remote alive and resets it.
        // The gauge moves before the ticket completes, so a caller that
        // waited on the ticket reads the new count.
        const auto transport_failure = [&](const std::string& cause) {
            failures_.fetch_add(1, std::memory_order_relaxed);
            core::detail::complete_external_ticket(
                *state, {},
                std::make_exception_ptr(
                    RemoteShardError(endpoint() + ": " + cause)),
                /*cancelled=*/false);
        };
        const auto answered = [&](core::ToolchainReport report,
                                  std::exception_ptr error, bool cancelled,
                                  bool shed) {
            failures_.store(0, std::memory_order_relaxed);
            core::detail::complete_external_ticket(
                *state, std::move(report), std::move(error), cancelled, shed);
        };
        if (reply == nullptr) {
            transport_failure(failure);
            return;
        }
        const double rtt_s = seconds_since(*sent_at);
        switch (reply->type) {
            case MsgType::kReplyReport: {
                const auto decode_start = Clock::now();
                core::ToolchainReport report;
                try {
                    report = core::wire::decode_report(reply->payload);
                } catch (const core::wire::WireError& e) {
                    transport_failure(std::string("reply rejected: ") +
                                      e.what());
                    return;
                }
                const double decode_s = seconds_since(decode_start);
                report.stage_laps.push_back({"net/encode", encode_s});
                report.stage_laps.push_back({"net/rtt", rtt_s});
                report.stage_laps.push_back({"net/decode", decode_s});
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    telemetry_.record("net/encode", encode_s);
                    telemetry_.record("net/rtt", rtt_s);
                    telemetry_.record("net/decode", decode_s);
                }
                answered(std::move(report), nullptr, /*cancelled=*/false,
                         /*shed=*/false);
                return;
            }
            case MsgType::kReplyCancelled:
                answered({},
                         std::make_exception_ptr(core::CancelledError(
                             core::detail::ticket_request(*state).label)),
                         /*cancelled=*/true, /*shed=*/false);
                return;
            case MsgType::kReplyShed:
                // Server-side admission refusal or budget shed: re-raise
                // as the same retryable class the local engine throws,
                // carrying the server's reason text.
                answered({},
                         std::make_exception_ptr(core::ShedError(
                             core::ShedError::Reason::kRemote,
                             core::detail::ticket_request(*state).label,
                             payload_text(reply->payload))),
                         /*cancelled=*/false, /*shed=*/true);
                return;
            case MsgType::kReplyError:
                answered({},
                         std::make_exception_ptr(std::runtime_error(
                             "remote shard error: " +
                             payload_text(reply->payload))),
                         /*cancelled=*/false, /*shed=*/false);
                return;
            default:
                transport_failure("unexpected reply type");
                return;
        }
    };

    transact(id, frame, std::move(handler), sent_at.get());
    return core::detail::wrap_external_ticket(state);
}

std::optional<Envelope> RemoteShard::round_trip(MsgType type,
                                                core::wire::Buffer payload) {
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    auto reply = std::make_shared<std::promise<std::optional<Envelope>>>();
    auto future = reply->get_future();
    transact(id, encode_envelope({id, type, std::move(payload)}),
             [reply](Envelope* envelope, const std::string&) {
                 reply->set_value(envelope == nullptr
                                      ? std::nullopt
                                      : std::optional(std::move(*envelope)));
             },
             nullptr);
    return future.get();
}

std::optional<core::EvaluationResult> RemoteShard::fetch(
    const core::EvaluationKey& key) {
    const auto reply = round_trip(MsgType::kFetch, core::wire::encode(key));
    if (!reply.has_value() || reply->type != MsgType::kReplyResult)
        return std::nullopt;
    try {
        return core::wire::decode_result(reply->payload);
    } catch (const core::wire::WireError&) {
        return std::nullopt;
    }
}

std::optional<core::BatchStats> RemoteShard::stats() {
    const auto reply = round_trip(MsgType::kStats, {});
    if (!reply.has_value() || reply->type != MsgType::kReplyStats)
        return std::nullopt;
    try {
        return core::wire::decode_batch_stats(reply->payload);
    } catch (const core::wire::WireError&) {
        return std::nullopt;
    }
}

core::StageTelemetry RemoteShard::transport_telemetry() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return telemetry_;
}

bool RemoteShard::healthy() {
    const std::lock_guard<std::mutex> send_lock(send_mutex_);
    try {
        return connection() != nullptr;
    } catch (const std::exception&) {
        return false;
    }
}

void RemoteShard::transact(std::uint64_t id,
                           const core::wire::Buffer& frame, Handler handler,
                           Clock::time_point* sent_at) {
    std::string failure;
    {
        const std::lock_guard<std::mutex> send_lock(send_mutex_);
        try {
            const auto conn = connection();
            {
                // Registered only on the live connection: once a reader
                // has retired its connection and failed that connection's
                // pendings, nothing can join them unanswered.
                const std::lock_guard<std::mutex> lock(mutex_);
                if (conn_ != conn)
                    throw TransportError(
                        "connection lost before the request was sent");
                pending_.emplace(id, Pending{conn, handler});
            }
            if (sent_at != nullptr) *sent_at = Clock::now();
            try {
                send_frame(conn->socket, frame);
            } catch (const TransportError&) {
                // The reader then fails every request sent on this
                // connection, this one included.
                conn->socket.shutdown_both();
            }
            return;
        } catch (const std::exception& e) {
            failure = e.what();
        }
    }
    // Outside send_mutex_: the handler runs user code (ticket completions)
    // that may itself submit.
    handler(nullptr, failure);
}

std::shared_ptr<RemoteShard::Connection> RemoteShard::connection() {
    std::vector<std::shared_ptr<Connection>> finished;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) throw TransportError("client shut down");
        if (conn_ != nullptr && !conn_->socket.peer_closed()) return conn_;
        // Retired, not shut down: its reader still drains the replies the
        // peer sent before hanging up.
        conn_ = nullptr;
        const auto ended = std::partition(
            connections_.begin(), connections_.end(),
            [](const auto& open) { return !open->finished.load(); });
        finished.assign(std::make_move_iterator(ended),
                        std::make_move_iterator(connections_.end()));
        connections_.erase(ended, connections_.end());
    }
    for (const auto& ended : finished) ended->reader.join();

    auto conn = std::make_shared<Connection>();
    conn->socket = Socket::connect_to(options_.host, options_.port);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) throw TransportError("client shut down");
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn_ = conn;
    connections_.push_back(conn);
    return conn;
}

void RemoteShard::reader_loop(const std::shared_ptr<Connection>& conn) {
    while (true) {
        std::optional<std::vector<std::uint8_t>> frame;
        try {
            frame = recv_frame(conn->socket);
        } catch (const TransportError&) {
            frame.reset();
        }
        if (!frame.has_value()) break;
        Envelope envelope;
        try {
            envelope = decode_envelope(*frame);
        } catch (const core::wire::WireError&) {
            break;  // the reply stream itself is corrupt
        }
        Handler handler;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const auto it = pending_.find(envelope.id);
            if (it != pending_.end()) {
                handler = std::move(it->second.handler);
                pending_.erase(it);
            }
        }
        // Unmatched ids (a reply raced a local failure) are dropped.
        if (handler) handler(&envelope, {});
    }
    // This connection is dead: fail every request that was sent on it and
    // will never be answered.
    std::vector<Handler> orphans;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (conn_ == conn) conn_ = nullptr;
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.conn == conn) {
                orphans.push_back(std::move(it->second.handler));
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto& handler : orphans)
        handler(nullptr, "connection lost before the reply arrived");
    conn->finished.store(true);
}

void RemoteShard::send_cancel(std::uint64_t id) {
    Envelope envelope;
    envelope.id = id;
    envelope.type = MsgType::kCancel;
    const auto frame = encode_envelope(envelope);
    const std::lock_guard<std::mutex> send_lock(send_mutex_);
    std::shared_ptr<Connection> conn;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        conn = conn_;
    }
    // No live connection: the submit this cancel names is already failing
    // through its reader cleanup, so there is nothing left to cancel.
    if (conn == nullptr) return;
    try {
        send_frame(conn->socket, frame);
    } catch (const TransportError&) {
        conn->socket.shutdown_both();
    }
}

}  // namespace teamplay::net
