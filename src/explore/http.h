// A dependency-free embedded HTTP/1.1 server, just big enough for the
// trace explorer: GET requests, query strings, one response per
// connection (Connection: close), loopback only.
//
// The HTTP layer over the socket core (net/): concurrent connections
// (503 beyond kMaxConnections; 408 for a header block that misses the
// core's deadline), one handler call at a time. Everything interesting
// — routing, JSON assembly, caching — lives in the Service layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "net/socket.h"

namespace diog::explore {

struct HttpRequest {
  std::string method;  // "GET"
  std::string path;    // decoded, no query string
  std::map<std::string, std::string, std::less<>> query;

  // Query accessors with defaults (missing or malformed -> fallback).
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view fallback = "") const;
  [[nodiscard]] std::int64_t get_i64(std::string_view key,
                                     std::int64_t fallback) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

// "%41" -> "A", "+" -> " ". Invalid escapes pass through literally.
std::string url_decode(std::string_view s);

// Splits "GET /api/timeline?t0=1&t1=2 HTTP/1.1" into method, decoded
// path, and decoded query map. Returns false on a malformed line.
bool parse_request_line(std::string_view line, HttpRequest& out);

// The reason phrase for the handful of statuses the explorer emits.
std::string_view status_text(int status);

// A JSON {"error": message} response with the given status.
HttpResponse error_response(int status, std::string_view message);

// Full response bytes (status line + headers + body).
std::string serialize_response(const HttpResponse& r);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds 127.0.0.1:port (0 picks an ephemeral port) and starts
  // listening. Throws diog::Error on failure.
  void bind(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

  // Accept loop on the calling thread; one request per connection.
  // Returns after stop(); throws diog::Error if accepting fails.
  void serve();

  // Thread-safe: waits for in-flight connections, makes serve() return.
  void stop();

 private:
  static constexpr std::size_t kMaxConnections = 16;

  void handle_connection(net::Conn& conn);

  Handler handler_;
  std::mutex handler_mu_;
  net::Server server_;  // last: destroyed (drained) first
};

}  // namespace diog::explore
