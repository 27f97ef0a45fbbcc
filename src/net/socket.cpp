#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace teamplay::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw TransportError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
    // Request/reply RPC over tiny-to-mid frames: Nagle only adds latency.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    const std::string service = std::to_string(port);
    if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &found) != 0 ||
        found == nullptr)
        throw TransportError("cannot resolve " + host);

    int fd = -1;
    for (const addrinfo* it = found; it != nullptr; it = it->ai_next) {
        fd = ::socket(it->ai_family, it->ai_socktype, it->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, it->ai_addr, it->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(found);
    if (fd < 0)
        throw TransportError("cannot connect to " + host + ":" + service);
    set_nodelay(fd);
    return Socket(fd);
}

void Socket::send_all(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE here, not as a
        // process-killing SIGPIPE.
        const ssize_t n =
            ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("send");
        }
        sent += static_cast<std::size_t>(n);
    }
}

void Socket::recv_all(void* data, std::size_t size) {
    auto* bytes = static_cast<std::uint8_t*>(data);
    std::size_t received = 0;
    while (received < size) {
        const ssize_t n = ::recv(fd_, bytes + received, size - received, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("recv");
        }
        if (n == 0) throw TransportError("connection closed mid-message");
        received += static_cast<std::size_t>(n);
    }
}

std::size_t Socket::recv_some(void* data, std::size_t size) {
    while (true) {
        const ssize_t n = ::recv(fd_, data, size, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("recv");
        }
        return static_cast<std::size_t>(n);
    }
}

bool Socket::peer_closed() const noexcept {
    // POLLRDHUP is Linux-specific, like the MSG_NOSIGNAL the sends use.
    pollfd entry{fd_, POLLRDHUP, 0};
    return ::poll(&entry, 1, 0) > 0 &&
           (entry.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
}

void Socket::shutdown_both() noexcept {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// -- Listener -----------------------------------------------------------------

Listener::Listener(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_ANY);
    address.sin_port = htons(port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
        0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        errno = saved;
        throw_errno("bind port " + std::to_string(port));
    }
    if (::listen(fd_, 16) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        errno = saved;
        throw_errno("listen");
    }
    socklen_t length = sizeof address;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) ==
        0)
        port_ = ntohs(address.sin_port);
}

Listener::~Listener() {
    if (fd_ >= 0) ::close(fd_);
}

std::optional<Socket> Listener::accept_one() {
    while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            set_nodelay(fd);
            return Socket(fd);
        }
        // `stop` shut the listening socket down: accept fails from then on
        // (EINVAL on Linux), which is the one way to end the loop.
        if (stopped_.load()) return std::nullopt;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        // Out of descriptors or kernel memory (EMFILE, ENFILE, ENOBUFS,
        // ENOMEM): connections closing elsewhere release them, and until
        // then the kernel keeps completing handshakes into the backlog, so
        // ending the loop would leave those clients waiting forever.  Any
        // other error is retried at the same pace.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

void Listener::stop() noexcept {
    stopped_.store(true);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// -- framing ------------------------------------------------------------------

void send_frame(Socket& socket, std::span<const std::uint8_t> payload) {
    if (payload.size() > kMaxFrameBytes)
        throw TransportError("frame exceeds size cap");
    std::uint8_t prefix[4];
    const auto length = static_cast<std::uint32_t>(payload.size());
    for (int byte = 0; byte < 4; ++byte)
        prefix[byte] = static_cast<std::uint8_t>(length >> (8 * byte));
    socket.send_all(prefix, sizeof prefix);
    if (!payload.empty()) socket.send_all(payload.data(), payload.size());
}

std::optional<std::vector<std::uint8_t>> recv_frame(Socket& socket) {
    std::uint8_t prefix[4];
    // EOF before the first prefix byte is an orderly goodbye; EOF anywhere
    // after it is a torn frame.
    const std::size_t first = socket.recv_some(prefix, 1);
    if (first == 0) return std::nullopt;
    socket.recv_all(prefix + 1, sizeof prefix - 1);
    std::uint32_t length = 0;
    for (int byte = 0; byte < 4; ++byte)
        length |= static_cast<std::uint32_t>(prefix[byte]) << (8 * byte);
    if (length > kMaxFrameBytes)
        throw TransportError("frame length exceeds size cap");
    std::vector<std::uint8_t> payload(length);
    if (length > 0) socket.recv_all(payload.data(), length);
    return payload;
}

}  // namespace teamplay::net
