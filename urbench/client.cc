#include "client.h"

#include <cctype>
#include <cstdlib>

#include "net/socket.h"
#include "spans.h"

namespace urbench {

namespace {

constexpr int kSocketTimeoutMs = 30'000;

// Splits a raw response into status, the traceparent header and the body.
void ParseResponse(const std::string& raw, HttpExchange* out) {
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) return;
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return;
  out->status = std::atoi(raw.c_str() + 9);
  std::size_t line = raw.find("\r\n") + 2;
  while (line < header_end) {
    const std::size_t next = raw.find("\r\n", line);
    const std::size_t colon = raw.find(':', line);
    if (colon != std::string::npos && colon < next) {
      std::string name = raw.substr(line, colon - line);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "traceparent") {
        std::size_t value = colon + 1;
        while (value < next && raw[value] == ' ') ++value;
        out->traceparent = raw.substr(value, next - value);
      }
    }
    line = next + 2;
  }
  out->body = raw.substr(header_end + 4);
}

}  // namespace

HttpExchange Exchange(std::uint16_t port, const std::string& wire) {
  HttpExchange exchange;
  exchange.start_ns = NowNs();
  urbane::StatusOr<int> fd = urbane::net::ConnectLoopback(port);
  exchange.connected_ns = NowNs();
  if (!fd.ok()) {
    exchange.sent_ns = exchange.end_ns = exchange.connected_ns;
    return exchange;
  }
  urbane::net::SetSocketTimeouts(*fd, kSocketTimeoutMs, kSocketTimeoutMs);
  std::string raw;
  const bool sent = urbane::net::SendAll(*fd, wire).ok();
  exchange.sent_ns = NowNs();
  if (sent && urbane::net::RecvAll(*fd, &raw).ok()) {
    ParseResponse(raw, &exchange);
  }
  urbane::net::CloseSocket(*fd);
  exchange.end_ns = NowNs();
  return exchange;
}

}  // namespace urbench
