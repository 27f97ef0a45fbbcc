#include "net/remote_shard.hpp"

#include <future>
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
        connections = connections_;
    }
    for (const auto& connection : connections)
        connection->socket.shutdown_both();
    std::vector<std::thread> readers;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        readers.swap(readers_);
    }
    // Each reader fails the pendings of its connection on the way out, so
    // every outstanding ticket completes before destruction finishes.
    for (auto& reader : readers)
        if (reader.joinable()) reader.join();
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

    transact(id, frame, std::move(handler), sent_at);
    return core::detail::wrap_external_ticket(state);
}

std::optional<core::EvaluationResult> RemoteShard::fetch(
    const core::EvaluationKey& key) {
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Envelope envelope;
    envelope.id = id;
    envelope.type = MsgType::kFetch;
    envelope.payload = core::wire::encode(key);
    const auto frame = encode_envelope(envelope);

    auto promise = std::make_shared<
        std::promise<std::optional<core::EvaluationResult>>>();
    auto future = promise->get_future();
    transact(
        id, frame,
        [promise](Envelope* reply, const std::string&) {
            if (reply == nullptr ||
                reply->type != MsgType::kReplyResult) {
                promise->set_value(std::nullopt);
                return;
            }
            try {
                promise->set_value(
                    core::wire::decode_result(reply->payload));
            } catch (const core::wire::WireError&) {
                promise->set_value(std::nullopt);
            }
        },
        nullptr);
    return future.get();
}

std::optional<core::BatchStats> RemoteShard::stats() {
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Envelope envelope;
    envelope.id = id;
    envelope.type = MsgType::kStats;
    const auto frame = encode_envelope(envelope);

    auto promise =
        std::make_shared<std::promise<std::optional<core::BatchStats>>>();
    auto future = promise->get_future();
    transact(
        id, frame,
        [promise](Envelope* reply, const std::string&) {
            if (reply == nullptr || reply->type != MsgType::kReplyStats) {
                promise->set_value(std::nullopt);
                return;
            }
            try {
                promise->set_value(
                    core::wire::decode_batch_stats(reply->payload));
            } catch (const core::wire::WireError&) {
                promise->set_value(std::nullopt);
            }
        },
        nullptr);
    return future.get();
}

core::StageTelemetry RemoteShard::transport_telemetry() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return telemetry_;
}

bool RemoteShard::healthy() {
    const std::lock_guard<std::mutex> send_lock(send_mutex_);
    try {
        return ensure_connected(/*attempts_override=*/1) != nullptr;
    } catch (const std::exception&) {
        return false;
    }
}

void RemoteShard::transact(std::uint64_t id,
                           const core::wire::Buffer& frame, Handler handler,
                           const std::shared_ptr<Clock::time_point>& sent_at) {
    std::string failure;
    bool fail = false;
    {
        const std::lock_guard<std::mutex> send_lock(send_mutex_);
        std::shared_ptr<Connection> conn;
        try {
            conn = ensure_connected();
        } catch (const std::exception& e) {
            failure = e.what();
            fail = true;
        }
        if (!fail) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                pending_.emplace(id, Pending{conn, handler});
            }
            bool sent = false;
            try {
                if (sent_at) *sent_at = Clock::now();
                send_frame(conn->socket, frame);
                sent = true;
            } catch (const TransportError&) {
                drop_connection(conn);
            }
            if (!sent) {
                // The connection died since the last exchange (half-open
                // TCP looks alive until the first write).  One reconnect
                // and resend; the pending entry is re-tagged so the dying
                // reader's cleanup does not fail it underneath us — unless
                // that cleanup already won, in which case the handler has
                // fired and we must stay silent.
                bool still_pending = false;
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    still_pending = pending_.find(id) != pending_.end();
                }
                if (still_pending) {
                    std::shared_ptr<Connection> fresh;
                    try {
                        fresh = ensure_connected();
                    } catch (const std::exception& e) {
                        if (take_pending(id)) {
                            failure = e.what();
                            fail = true;
                        }
                        fresh = nullptr;
                    }
                    if (fresh != nullptr) {
                        bool retagged = false;
                        {
                            const std::lock_guard<std::mutex> lock(mutex_);
                            const auto it = pending_.find(id);
                            if (it != pending_.end()) {
                                it->second.conn = fresh;
                                retagged = true;
                            }
                        }
                        if (retagged) {
                            try {
                                if (sent_at) *sent_at = Clock::now();
                                send_frame(fresh->socket, frame);
                            } catch (const TransportError& e) {
                                drop_connection(fresh);
                                if (take_pending(id)) {
                                    failure = e.what();
                                    fail = true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Outside send_mutex_: the handler runs user code (ticket completions)
    // that may itself submit.
    if (fail) handler(nullptr, failure);
}

std::shared_ptr<RemoteShard::Connection> RemoteShard::ensure_connected(
    int attempts_override) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) throw TransportError("client shut down");
        if (conn_ != nullptr) return conn_;
    }
    double backoff_s = options_.initial_backoff_s;
    std::string last_error = "unreachable";
    const int attempts =
        attempts_override > 0 ? attempts_override
        : options_.connect_attempts > 0 ? options_.connect_attempts
                                        : 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff_s));
            backoff_s = std::min(backoff_s * 2.0, options_.max_backoff_s);
        }
        auto conn = std::make_shared<Connection>();
        try {
            conn->socket = Socket::connect_to(options_.host, options_.port);
        } catch (const TransportError& e) {
            last_error = e.what();
            continue;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) throw TransportError("client shut down");
        conn_ = conn;
        connections_.push_back(conn);
        readers_.emplace_back([this, conn] { reader_loop(conn); });
        return conn;
    }
    throw TransportError(last_error);
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
    // This connection generation is dead: fail every request that was sent
    // on it and will never be answered.  Requests already re-tagged onto a
    // newer connection are left alone.
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
}

void RemoteShard::drop_connection(
    const std::shared_ptr<Connection>& conn) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (conn_ == conn) conn_ = nullptr;
    }
    conn->socket.shutdown_both();  // unblocks the reader, which cleans up
}

bool RemoteShard::take_pending(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pending_.erase(id) != 0;
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
        drop_connection(conn);
    }
}

}  // namespace teamplay::net
