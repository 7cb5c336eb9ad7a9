#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>

namespace urbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t begin = std::max(child.start_ns, span.start_ns);
    const std::int64_t end = std::min(child.end_ns, span.end_ns);
    if (begin < end) intervals.emplace_back(begin, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = std::numeric_limits<std::int64_t>::min();
  for (const auto& [begin, end] : intervals) {
    if (begin > run_end) {
      if (run_end > run_begin) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_begin) covered += run_end - run_begin;
  return span.duration_ns() - covered;
}

std::uint64_t SpanLog::NewId() {
  static std::atomic<std::uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SpanLog::Add(std::string name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint64_t parent,
                           std::string trace_id, std::uint64_t id) {
  Span span;
  span.trace_id = std::move(trace_id);
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Merge(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::vector<Span> SpanLog::ChildrenOf(std::uint64_t id) const {
  std::vector<Span> children;
  for (const Span& span : spans_) {
    if (span.parent == id) children.push_back(span);
  }
  return children;
}

const Span* SpanLog::Find(std::uint64_t id) const {
  for (const Span& span : spans_) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

urbane::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return urbane::Status::IoError("cannot write spans to " + path);
  }
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"trace_id\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 span.trace_id.c_str(),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 span.name.c_str(),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0
             ? urbane::Status::OK()
             : urbane::Status::IoError("cannot write spans to " + path);
}

}  // namespace urbench
