// Blocking POSIX TCP primitives for the shard fabric (DESIGN.md §11).
//
// Deliberately minimal: RAII sockets, a listener with an unblockable
// accept that outlives a shortage of descriptors, a zero-wait hang-up
// check, and length-prefixed framing (the same u32 LE prefix the wire
// codec's `append_frame` uses on disk) — no event loop, no non-blocking
// I/O.  The fabric's concurrency comes from threads (one reader per
// connection, the engine's own pool for work), which keeps the transport
// auditable and the failure model simple: every partial read or write
// surfaces as a TransportError on the thread that owns the operation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace teamplay::net {

/// Socket-layer failure: connect refused, peer reset, torn frame.  Always
/// retryable at the RPC layer — the bytes on the wire are self-contained
/// requests, so a failed attempt never leaves partial state behind.
class TransportError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Frames larger than this are rejected on both sides before any
/// allocation: a corrupted length prefix must not look like a 4 GiB
/// message.  Generous — the largest real message (a report with compiled
/// fronts) is a few MiB.
inline constexpr std::size_t kMaxFrameBytes = 256u * 1024 * 1024;

/// One connected TCP stream, closed on destruction.  Reads and writes may
/// run on different threads concurrently (recv on the reader thread, send
/// under the owner's write lock); `shutdown_both` from any thread unblocks
/// both directions.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket& operator=(Socket&& other) noexcept;

    /// Connect to `host:port` (numeric or resolvable name); throws
    /// TransportError when the connection cannot be established.
    [[nodiscard]] static Socket connect_to(const std::string& host,
                                           std::uint16_t port);

    [[nodiscard]] bool valid() const { return fd_ >= 0; }

    /// Write exactly `size` bytes; throws TransportError on any failure.
    void send_all(const void* data, std::size_t size);

    /// Read exactly `size` bytes; throws TransportError on error or EOF.
    void recv_all(void* data, std::size_t size);

    /// Read up to `size` bytes; returns 0 on orderly EOF, throws on error.
    /// Used for the first byte of a frame, where EOF is a clean goodbye
    /// rather than a torn message.
    [[nodiscard]] std::size_t recv_some(void* data, std::size_t size);

    /// True when the peer has hung up or the connection has failed
    /// (POLLRDHUP, POLLHUP or POLLERR, polled without waiting).  Replies
    /// the peer sent before hanging up may still be waiting to be read.
    [[nodiscard]] bool peer_closed() const noexcept;

    /// Unblock any thread sitting in recv/send on this socket.
    void shutdown_both() noexcept;

    void close() noexcept;

private:
    int fd_ = -1;
};

/// Listening endpoint.  Port 0 binds an ephemeral port (tests and
/// loopback benches); `port()` reports the bound one.
class Listener {
public:
    /// Throws TransportError when the port cannot be bound.
    explicit Listener(std::uint16_t port);
    ~Listener();

    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Block for the next connection; nullopt once `stop` was called, and
    /// only then.  A handshake the peer abandoned is skipped, and a
    /// shortage of descriptors or kernel memory is waited out.
    [[nodiscard]] std::optional<Socket> accept_one();

    /// Unblock a pending `accept_one` and refuse further connections.
    void stop() noexcept;

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopped_{false};
};

// -- framing ------------------------------------------------------------------

/// Send one length-prefixed frame (u32 LE payload length + payload).
void send_frame(Socket& socket, std::span<const std::uint8_t> payload);

/// Receive one frame.  Returns nullopt on orderly EOF *between* frames;
/// throws TransportError on a torn prefix, torn payload, or a length
/// beyond kMaxFrameBytes.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> recv_frame(
    Socket& socket);

}  // namespace teamplay::net
