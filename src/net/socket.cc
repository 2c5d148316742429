#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/telemetry.h"

namespace diog::net {

namespace {

void count(const std::string& tag, const char* what) {
  obs::Telemetry::global().metrics().counter(tag + "." + what).inc();
}

// Every socket call goes through here: rc, or the classified error.
template <typename T>
T call(const std::string& tag, std::string_view op, T rc, int err = 0) {
  if (rc >= 0) return rc;
  throw Error(tag + ": " + std::string(op) + " failed: " +
              std::strerror(err != 0 ? err : errno));
}

}  // namespace

Conn::Conn(std::string tag, int fd, Clock::time_point deadline)
    : tag_(std::move(tag)), fd_(fd), deadline_(deadline) {}

Conn::~Conn() { if (fd_ >= 0) ::close(fd_); }

Conn::Conn(Conn&& other) noexcept
    : tag_(std::move(other.tag_)),
      fd_(std::exchange(other.fd_, -1)),
      deadline_(other.deadline_) {}

void Conn::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    bytes.remove_prefix(static_cast<std::size_t>(call(tag_, "send", n)));
  }
}

std::size_t Conn::recv_some(void* buf, std::size_t n) {
  for (;;) {
    if (deadline_ != Clock::time_point::max()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            deadline_ - Clock::now()).count();
      pollfd p{.fd = fd_, .events = POLLIN, .revents = 0};
      const int ready = left > 0 ? ::poll(&p, 1, static_cast<int>(left)) : 0;
      if (ready < 0 && errno == EINTR) continue;
      if (call(tag_, "poll", ready) == 0) {
        count(tag_, "deadline_expired");
        throw Error(tag_ + ": first message not received within " +
                    std::to_string(kFirstMessageDeadline.count()) +
                    " ms (deadline expired)");
      }
    }
    const ssize_t got = ::recv(fd_, buf, n, 0);
    if (got >= 0 || errno != EINTR) {
      return static_cast<std::size_t>(call(tag_, "recv", got));
    }
  }
}

void Conn::shutdown_write() { call(tag_, "shutdown", ::shutdown(fd_, SHUT_WR)); }

Conn connect(const std::string& tag, const std::string& host,
             std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error(tag + ": not a numeric IPv4 address: " + host);
  }
  Conn conn(tag, call(tag, "socket", ::socket(AF_INET, SOCK_STREAM, 0)));
  call(tag, "connect to " + host + ":" + std::to_string(port),
       ::connect(conn.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr));
  return conn;
}

Server::Server(std::string tag, std::size_t max_slots)
    : tag_(std::move(tag)), slots_(std::max<std::size_t>(max_slots, 1)) {}

Server::~Server() {
  stop();
  if (fd_ >= 0) ::close(fd_);
}

void Server::listen(std::uint16_t port) {
  DIOG_CHECK(fd_ < 0, tag_ + ": already bound");
  Conn sock(tag_, call(tag_, "socket", ::socket(AF_INET, SOCK_STREAM, 0)));
  const int one = 1;
  ::setsockopt(sock.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof addr;
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  const std::string where = "127.0.0.1:" + std::to_string(port);
  call(tag_, "bind to " + where, ::bind(sock.fd_, sa, len));
  call(tag_, "listen on " + where, ::listen(sock.fd_, 16));
  call(tag_, "getsockname", ::getsockname(sock.fd_, sa, &len));
  port_ = ntohs(addr.sin_port);
  fd_ = std::exchange(sock.fd_, -1);
}

void Server::serve(Protocol protocol) {
  const std::lock_guard<std::mutex> serving(serving_);
  protocol_ = std::move(protocol);
  while (!stopping_) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    const int err = errno;
    if (fd >= 0) {
      admit(Conn(tag_, fd, Conn::Clock::now() + kFirstMessageDeadline));
    } else if (!stopping_ && err != EINTR) {
      // Out of descriptors or memory passes as connections close; an
      // aborted connection concerns only its own peer.
      if (err != EMFILE && err != ENFILE && err != ENOBUFS &&
          err != ENOMEM && err != ECONNABORTED) {
        call(tag_, "accept", fd, err);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

void Server::admit(Conn conn) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto slot = std::find_if(slots_.begin(), slots_.end(),
                                 [](const Slot& s) { return !s.busy; });
  if (slot == slots_.end()) {
    lock.unlock();
    count(tag_, "refused");
    try {
      conn.send_all(protocol_.refusal(tag_ + ": at capacity (" +
                                      std::to_string(slots_.size()) +
                                      " clients)"));
    } catch (const Error&) {  // the peer may be gone already
    }
    return;
  }
  slot->busy = true;
  lock.unlock();
  if (slot->thread.joinable()) slot->thread.join();  // finished: reap it
  slot->thread = std::thread([this, slot, c = std::move(conn)]() mutable {
    try {
      protocol_.handle(c);
    } catch (const std::exception&) {
      count(tag_, "errors");
    }
    // Free the slot before the close, so a peer that sees the close can
    // connect again and be admitted.
    const std::lock_guard<std::mutex> lock(mu_);
    slot->busy = false;
  });
}

void Server::stop() {
  stopping_ = true;
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);  // wakes a blocked accept()
  const std::lock_guard<std::mutex> serve_ended(serving_);
  for (Slot& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
}

}  // namespace diog::net
