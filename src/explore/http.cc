#include "explore/http.h"

#include <cstdlib>

#include "json/json.h"
#include "support/error.h"

namespace diog::explore {

namespace {

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               hex_val(s[i + 1]) >= 0 && hex_val(s[i + 2]) >= 0) {
      out += static_cast<char>(hex_val(s[i + 1]) * 16 + hex_val(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

bool parse_request_line(std::string_view line, HttpRequest& out) {
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  out.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const std::size_t q = target.find('?');
  out.path = url_decode(target.substr(0, q));
  out.query.clear();
  if (q != std::string_view::npos) {
    std::string_view qs = target.substr(q + 1);
    while (!qs.empty()) {
      const std::size_t amp = qs.find('&');
      const std::string_view pair = qs.substr(0, amp);
      const std::size_t eq = pair.find('=');
      if (!pair.empty()) {
        if (eq == std::string_view::npos) {
          out.query[url_decode(pair)] = "";
        } else {
          out.query[url_decode(pair.substr(0, eq))] =
              url_decode(pair.substr(eq + 1));
        }
      }
      if (amp == std::string_view::npos) break;
      qs.remove_prefix(amp + 1);
    }
  }
  return true;
}

std::string HttpRequest::get(std::string_view key,
                             std::string_view fallback) const {
  const auto it = query.find(key);
  return it != query.end() ? it->second : std::string(fallback);
}

std::int64_t HttpRequest::get_i64(std::string_view key,
                                  std::int64_t fallback) const {
  const auto it = query.find(key);
  if (it == query.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 422: return "Unprocessable Entity";
    case 503: return "Service Unavailable";
    default: return status >= 500 ? "Internal Server Error" : "Error";
  }
}

HttpResponse error_response(int status, std::string_view message) {
  json::Object o;
  o["error"] = std::string(message);
  HttpResponse r;
  r.status = status;
  r.body = json::Value(std::move(o)).dump();
  return r;
}

std::string serialize_response(const HttpResponse& r) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                    std::string(status_text(r.status)) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Cache-Control: no-store\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

HttpServer::HttpServer(Handler handler)
    : handler_(std::move(handler)), server_("http", kMaxConnections) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::bind(std::uint16_t port) { server_.listen(port); }

void HttpServer::serve() {
  server_.serve({
      .handle = [this](net::Conn& conn) { handle_connection(conn); },
      .refusal =
          [](const std::string& reason) {
            return serialize_response(error_response(503, reason));
          },
  });
}

void HttpServer::stop() { server_.stop(); }

void HttpServer::handle_connection(net::Conn& conn) {
  // Read until the end of the header block (no request bodies: the
  // explorer is GET-only), with a hard cap so a hostile peer cannot
  // balloon memory.
  std::string buf;
  char chunk[4096];
  try {
    while (buf.find("\r\n\r\n") == std::string::npos &&
           buf.size() < 64 * 1024) {
      const std::size_t n = conn.recv_some(chunk, sizeof chunk);
      if (n == 0) break;
      buf.append(chunk, n);
    }
  } catch (const Error& e) {  // the header block is late (or the peer gone)
    conn.send_all(serialize_response(error_response(408, e.what())));
    return;
  }
  HttpResponse resp;
  HttpRequest req;
  const std::size_t eol = buf.find("\r\n");
  if (eol == std::string::npos ||
      !parse_request_line(std::string_view(buf).substr(0, eol), req)) {
    resp = error_response(400, "malformed request");
  } else if (req.method != "GET" && req.method != "HEAD") {
    resp = error_response(405, "method not allowed");
  } else {
    {
      // Handlers are not thread-safe: one request at a time.
      std::lock_guard<std::mutex> lock(handler_mu_);
      resp = handler_(req);
    }
    if (req.method == "HEAD") resp.body.clear();
  }
  conn.send_all(serialize_response(resp));
}

}  // namespace diog::explore
