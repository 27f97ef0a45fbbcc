// ShardServer: one ScenarioEngine behind a TCP accept/decode/submit/reply
// loop (DESIGN.md §11).
//
// One accept thread, one reader thread per connection; the engine's own
// pool executes the scenarios, and each completion callback writes the
// reply back under the connection's write lock (replies interleave in
// completion order — the correlation id in the envelope is what matches
// them to requests, not arrival order).  Each accept joins and closes the
// connections whose reader has ended and whose scenarios have all
// replied, so departed clients do not pile up until `stop`.  A structurally valid envelope
// whose payload fails strict wire decoding is answered with kReplyError
// and the connection keeps serving; a torn frame drops the connection
// (the framing itself can no longer be trusted).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scenario_engine.hpp"
#include "net/socket.hpp"

namespace teamplay::net {

class ShardServer {
public:
    struct Options {
        std::uint16_t port = 0;  ///< 0 = ephemeral (tests, loopback benches)
        core::ScenarioEngine::Options engine;
    };

    /// Binds and starts serving immediately; throws TransportError when
    /// the port cannot be bound.
    explicit ShardServer(Options options);
    ~ShardServer();

    ShardServer(const ShardServer&) = delete;
    ShardServer& operator=(const ShardServer&) = delete;

    [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

    /// The wrapped engine (loopback tests compare its output and counters
    /// against the remote path).
    [[nodiscard]] core::ScenarioEngine& engine() { return engine_; }

    /// Stop accepting, drop every connection, drain in-flight scenarios.
    /// Idempotent; the destructor calls it.
    void stop();

private:
    struct Connection;

    void accept_loop();
    void serve_connection(const std::shared_ptr<Connection>& connection);
    void handle_frame(const std::shared_ptr<Connection>& connection,
                      std::span<const std::uint8_t> frame);

    /// Engine first: it is destroyed last, after every reader thread was
    /// joined, and its destructor drains scenarios whose completions still
    /// hold Connection shared_ptrs.
    core::ScenarioEngine engine_;
    Listener listener_;
    std::mutex mutex_;  ///< guards connections_ and stopped_
    /// Every connection not yet joined and closed.
    std::vector<std::shared_ptr<Connection>> connections_;
    bool stopped_ = false;
    std::thread accept_thread_;
};

}  // namespace teamplay::net
