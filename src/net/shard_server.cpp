#include "net/shard_server.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "net/protocol.hpp"

namespace teamplay::net {

namespace {

std::string describe(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

core::wire::Buffer text_payload(const std::string& text) {
    return {text.begin(), text.end()};
}

}  // namespace

struct ShardServer::Connection {
    Socket socket;
    std::thread reader;
    /// Set by the reader as its last act.
    std::atomic<bool> finished{false};
    /// One reply frame at a time; completions run on engine pool threads.
    std::mutex write_mutex;
    std::mutex inflight_mutex;
    /// Scenarios that still owe a reply, by request id.  The reader handles
    /// a kSubmit to the end, registration included, before it reads the
    /// next frame, so a kCancel always finds a registered ticket.
    std::map<std::uint64_t, core::ScenarioTicket> inflight;

    /// The reader has ended and no scenario still owes a reply, so
    /// nothing will use the connection again: it can be joined and closed
    /// without `stop` losing an in-flight scenario to drain.
    [[nodiscard]] bool released() {
        if (!finished.load()) return false;
        const std::lock_guard<std::mutex> lock(inflight_mutex);
        return inflight.empty();
    }

    /// Best-effort reply: a peer that vanished mid-scenario simply never
    /// hears the answer — the scenario itself completed and is cached.
    void reply(const Envelope& envelope) {
        const auto frame = encode_envelope(envelope);
        const std::lock_guard<std::mutex> lock(write_mutex);
        try {
            send_frame(socket, frame);
        } catch (const TransportError&) {
        }
    }
};

namespace {

core::ScenarioEngine::Options served_engine(
    core::ScenarioEngine::Options options) {
    // A caller-only engine executes scenarios inside ticket waits — but a
    // server never waits on its tickets (the completion callback *is* the
    // reply), so zero workers would park every submission forever.
    if (options.worker_threads == 0) options.worker_threads = 1;
    return options;
}

}  // namespace

ShardServer::ShardServer(Options options)
    : engine_(served_engine(std::move(options.engine))),
      listener_(options.port) {
    accept_thread_ = std::thread([this] { accept_loop(); });
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::stop() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
    }
    listener_.stop();
    if (accept_thread_.joinable()) accept_thread_.join();

    std::vector<std::shared_ptr<Connection>> connections;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        connections.swap(connections_);
    }
    for (const auto& connection : connections)
        connection->socket.shutdown_both();
    for (const auto& connection : connections)
        if (connection->reader.joinable()) connection->reader.join();
    // Drain in-flight scenarios before returning: their completions hold
    // Connection references and must not outlive a caller that tears the
    // server down and then inspects the engine.
    for (const auto& connection : connections) {
        std::vector<core::ScenarioTicket> tickets;
        {
            const std::lock_guard<std::mutex> lock(
                connection->inflight_mutex);
            for (auto& [id, ticket] : connection->inflight)
                tickets.push_back(ticket);
        }
        for (auto& ticket : tickets) ticket.wait();
    }
}

void ShardServer::accept_loop() {
    while (auto socket = listener_.accept_one()) {
        auto connection = std::make_shared<Connection>();
        connection->socket = std::move(*socket);
        std::vector<std::shared_ptr<Connection>> released;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (stopped_) return;
            const auto ended = std::partition(
                connections_.begin(), connections_.end(),
                [](const auto& open) { return !open->released(); });
            released.assign(std::make_move_iterator(ended),
                            std::make_move_iterator(connections_.end()));
            connections_.erase(ended, connections_.end());
            connections_.push_back(connection);
        }
        for (const auto& ended : released) ended->reader.join();
        connection->reader = std::thread(
            [this, connection] { serve_connection(connection); });
    }
}

void ShardServer::serve_connection(
    const std::shared_ptr<Connection>& connection) {
    while (true) {
        std::optional<std::vector<std::uint8_t>> frame;
        try {
            frame = recv_frame(connection->socket);
        } catch (const TransportError&) {
            // Torn or oversized frame, or a dead peer: the stream is
            // unusable.  Shutting the socket tells a live peer at once
            // (it reads EOF) instead of leaving it waiting for an answer.
            connection->socket.shutdown_both();
            break;
        }
        if (!frame.has_value()) break;  // orderly goodbye
        try {
            handle_frame(connection, *frame);
        } catch (const core::wire::WireError&) {
            // The envelope *header* could not be parsed, so there is no id
            // to answer on — framing discipline is gone, drop the
            // connection and tell the peer.  (A bad payload inside a good
            // envelope is answered with kReplyError in handle_frame.)
            connection->socket.shutdown_both();
            break;
        }
    }
    connection->finished.store(true);
}

void ShardServer::handle_frame(const std::shared_ptr<Connection>& connection,
                               std::span<const std::uint8_t> frame) {
    Envelope envelope = decode_envelope(frame);
    const std::uint64_t id = envelope.id;
    switch (envelope.type) {
        case MsgType::kSubmit: {
            std::shared_ptr<core::wire::ScenarioRequestFrame> request;
            try {
                request =
                    std::make_shared<core::wire::ScenarioRequestFrame>(
                        core::wire::decode_request(envelope.payload));
            } catch (const core::wire::WireError& e) {
                connection->reply(
                    {id, MsgType::kReplyError, text_payload(e.what())});
                return;
            }
            {
                const std::lock_guard<std::mutex> lock(
                    connection->inflight_mutex);
                connection->inflight.try_emplace(id);
            }
            // The frame owns the program/platform the submitted request
            // points at; the completion's capture keeps it alive until the
            // scenario is done.
            auto ticket = engine_.submit(
                request->request(),
                [connection, request, id](
                    const core::ScenarioOutcome& outcome) {
                    Envelope reply;
                    reply.id = id;
                    if (outcome.shed) {
                        // Admission refusal or mid-flight budget shed:
                        // its own reply type, so the client can re-raise
                        // the retryable ShedError and count it apart
                        // from caller cancels.
                        reply.type = MsgType::kReplyShed;
                        reply.payload =
                            text_payload(describe(outcome.error));
                    } else if (outcome.cancelled) {
                        reply.type = MsgType::kReplyCancelled;
                        reply.payload =
                            text_payload(describe(outcome.error));
                    } else if (outcome.error) {
                        reply.type = MsgType::kReplyError;
                        reply.payload =
                            text_payload(describe(outcome.error));
                    } else {
                        reply.type = MsgType::kReplyReport;
                        reply.payload = core::wire::encode(*outcome.report);
                    }
                    connection->reply(reply);
                    const std::lock_guard<std::mutex> lock(
                        connection->inflight_mutex);
                    connection->inflight.erase(id);
                });
            {
                // The completion erases the id; if it already ran, there
                // is nothing left to register.
                const std::lock_guard<std::mutex> lock(
                    connection->inflight_mutex);
                const auto it = connection->inflight.find(id);
                if (it != connection->inflight.end())
                    it->second = std::move(ticket);
            }
            return;
        }
        case MsgType::kFetch: {
            try {
                const auto key = core::wire::decode_key(envelope.payload);
                const auto result = engine_.peek_cached(key);
                if (result != nullptr)
                    connection->reply({id, MsgType::kReplyResult,
                                       core::wire::encode(*result)});
                else
                    connection->reply({id, MsgType::kReplyMiss, {}});
            } catch (const core::wire::WireError& e) {
                connection->reply(
                    {id, MsgType::kReplyError, text_payload(e.what())});
            }
            return;
        }
        case MsgType::kCancel: {
            const std::lock_guard<std::mutex> lock(
                connection->inflight_mutex);
            const auto it = connection->inflight.find(id);
            if (it != connection->inflight.end()) it->second.cancel();
            return;
        }
        case MsgType::kStats:
            connection->reply({id, MsgType::kReplyStats,
                               core::wire::encode(engine_.stats())});
            return;
        default:
            // A reply type arriving at the server: protocol confusion,
            // answered in kind so the peer can diagnose it.
            connection->reply({id, MsgType::kReplyError,
                               text_payload("unexpected message type")});
            return;
    }
}

}  // namespace teamplay::net
