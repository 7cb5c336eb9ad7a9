#ifndef URBENCH_CLIENT_H_
#define URBENCH_CLIENT_H_

// One HTTP exchange over a fresh loopback connection (the query server
// closes every connection after its response), timed at each step.

#include <cstdint>
#include <string>

namespace urbench {

struct HttpExchange {
  int status = 0;  // 0: transport failure
  std::string body;
  std::string traceparent;  // response header, when present
  std::int64_t start_ns = 0;
  std::int64_t connected_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t end_ns = 0;

  double latency_ms() const { return (end_ns - start_ns) / 1e6; }
};

/// Connects to 127.0.0.1:`port`, sends `wire` and reads the response until
/// the server closes. Socket timeouts bound a stuck exchange.
HttpExchange Exchange(std::uint16_t port, const std::string& wire);

}  // namespace urbench

#endif  // URBENCH_CLIENT_H_
