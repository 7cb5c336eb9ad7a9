#ifndef URBENCH_SPANS_H_
#define URBENCH_SPANS_H_

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer, kept in memory per thread and written out when
// the run ends. A span's trace id is the W3C trace id the client sent, so
// client spans join the server's urbane.profile.v1 document for the same
// request.

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace urbench {

/// Monotonic clock in nanoseconds.
std::int64_t NowNs();

struct Span {
  std::string trace_id;     // 32 hex chars; empty for in-process replays
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A layer's self time: the span's duration minus the part of its interval
/// covered by the union of its children's intervals (each clipped to the
/// span, overlaps counted once).
std::int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

/// Spans of one thread (no locking); Merge folds per-thread logs together
/// after the threads have joined.
class SpanLog {
 public:
  /// A fresh span id, unique across logs: lets children name a parent
  /// that is recorded after them, once its end is known.
  static std::uint64_t NewId();

  /// Appends a span and returns its id (`id` 0 takes a fresh one).
  std::uint64_t Add(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::string trace_id = std::string(),
                    std::uint64_t id = 0);
  void Merge(const SpanLog& other);
  std::vector<Span> ChildrenOf(std::uint64_t id) const;
  /// The span with `id`, or nullptr.
  const Span* Find(std::uint64_t id) const;

  /// One JSON object per line: {trace_id, id, parent, name, start_ns,
  /// end_ns}, start times relative to the earliest span.
  urbane::Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace urbench

#endif  // URBENCH_SPANS_H_
