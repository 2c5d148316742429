// The one socket core under the explorer's HTTP server and the trace
// hub: every socket call in src/ is here, and every failure is a
// diog::Error "<tag>: <op> failed: <strerror>".
//
// A Server runs each connection on its own thread, at most max_slots at
// once; one more gets the protocol's refusal written before the close
// (<tag>.refused). A connection's first message must arrive within
// kFirstMessageDeadline of its accept, in total, so a slow drip is cut
// like an idle peer (<tag>.deadline_expired); after first_message_done()
// there is no idle limit. Accept failing for lack of descriptors or
// memory backs off and keeps serving; any other accept error throws.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/error.h"

namespace diog::net {

inline constexpr std::chrono::milliseconds kFirstMessageDeadline{2000};

// A connected stream socket; closes on destruction.
class Conn {
 public:
  using Clock = std::chrono::steady_clock;

  Conn(std::string tag, int fd,
       Clock::time_point deadline = Clock::time_point::max());
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&&) = delete;

  void send_all(std::string_view bytes);
  std::size_t recv_some(void* buf, std::size_t n);  // 0: end of stream
  void shutdown_write();
  void first_message_done() { deadline_ = Clock::time_point::max(); }

 private:
  friend Conn connect(const std::string& tag, const std::string& host,
                      std::uint16_t port);
  friend class Server;

  std::string tag_;
  int fd_ = -1;
  Clock::time_point deadline_;
};

// Connects to a numeric IPv4 host; the client side has no deadline.
Conn connect(const std::string& tag, const std::string& host,
             std::uint16_t port);

class Server {
 public:
  struct Protocol {
    std::function<void(Conn&)> handle;  // throws count as <tag>.errors
    std::function<std::string(const std::string& reason)> refusal;
  };

  Server(std::string tag, std::size_t max_slots);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:port (0 = ephemeral) and listens.
  void listen(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const { return port_; }
  void serve(Protocol protocol);  // the accept loop, until stop()
  void stop();  // thread-safe; then waits for in-flight connections

 private:
  struct Slot {
    std::thread thread;  // started by serve(), joined by serve() or stop()
    bool busy = false;   // guarded by mu_
  };

  void admit(Conn conn);

  const std::string tag_;
  Protocol protocol_;
  std::vector<Slot> slots_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::mutex serving_;  // held by serve() while it runs
};

}  // namespace diog::net
