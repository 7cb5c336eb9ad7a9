#ifndef URBENCH_REPORT_H_
#define URBENCH_REPORT_H_

// Summaries, operation accounting and the result documents of one run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/json.h"

namespace urbench {

/// Samples that must lie beyond a reported tail percentile.
constexpr std::size_t kMinTailSamples = 10;

/// The sample-support rule: the q-quantile (0 < q < 1) of n samples is
/// reported only when at least kMinTailSamples samples lie beyond it,
/// i.e. when n * (1 - q) >= kMinTailSamples.
bool TailSupported(std::size_t n, double q);

/// The highest quantile, at most `cap`, that n samples support (0 for
/// fewer than kMinTailSamples samples).
double SupportedTailQuantile(std::size_t n, double cap);

/// Linearly interpolated q-quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Every operation attempted in one phase, by outcome.
struct PhaseCounts {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;    // HTTP 429
  std::uint64_t http_error = 0;  // any other non-200
  std::uint64_t transport = 0;   // connect/send/receive failed
  std::uint64_t wrong = 0;       // 200 whose answer failed a check

  /// Records one HTTP outcome (status 0 = transport failure).
  void Record(int http_status);
  void Add(const PhaseCounts& other);
  std::uint64_t failed() const {
    return rejected + http_error + transport + wrong;
  }
  urbane::data::JsonValue ToJson() const;
};

/// An ordered metric set: name -> (value, unit).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...}
  urbane::data::JsonValue ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The environment stamp of a run: what must match for two runs to be
/// comparable (see compare.py).
urbane::data::JsonValue EnvironmentStamp(const std::string& workload,
                                         std::uint64_t seed, double scale,
                                         double seconds, bool trace);

/// The result line, printed last on stdout: {"correct", "attempted", "failed",
/// "metrics"}.
std::string ResultLine(bool correct, const PhaseCounts& total,
                       const MetricSet& metrics);

}  // namespace urbench

#endif  // URBENCH_REPORT_H_
