#include "report.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <thread>

#include "raster/simd.h"

namespace urbench {

using urbane::data::JsonValue;

bool TailSupported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >=
         static_cast<double>(kMinTailSamples) - 1e-9;
}

double SupportedTailQuantile(std::size_t n, double cap) {
  if (n < kMinTailSamples) return 0.0;
  return std::min(cap, 1.0 - static_cast<double>(kMinTailSamples) /
                                 static_cast<double>(n));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void PhaseCounts::Record(int http_status) {
  ++attempted;
  if (http_status == 200) {
    ++ok;
  } else if (http_status == 429) {
    ++rejected;
  } else if (http_status == 0) {
    ++transport;
  } else {
    ++http_error;
  }
}

void PhaseCounts::Add(const PhaseCounts& other) {
  attempted += other.attempted;
  ok += other.ok;
  rejected += other.rejected;
  http_error += other.http_error;
  transport += other.transport;
  wrong += other.wrong;
}

JsonValue PhaseCounts::ToJson() const {
  JsonValue::Object doc;
  const auto num = [](std::uint64_t v) {
    return JsonValue(static_cast<double>(v));
  };
  doc.emplace_back("attempted", num(attempted));
  doc.emplace_back("ok", num(ok));
  doc.emplace_back("rejected_429", num(rejected));
  doc.emplace_back("http_error", num(http_error));
  doc.emplace_back("transport", num(transport));
  doc.emplace_back("wrong", num(wrong));
  return JsonValue(std::move(doc));
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

JsonValue MetricSet::ToJson() const {
  JsonValue::Object doc;
  for (const auto& [name, value_unit] : items_) {
    JsonValue::Object metric;
    metric.emplace_back("value", JsonValue(value_unit.first));
    metric.emplace_back("unit", JsonValue(value_unit.second));
    doc.emplace_back(name, JsonValue(std::move(metric)));
  }
  return JsonValue(std::move(doc));
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

JsonValue EnvironmentStamp(const std::string& workload, std::uint64_t seed,
                           double scale, double seconds, bool trace) {
  JsonValue stamp = JsonValue(JsonValue::Object());
  stamp.Set("nproc",
            static_cast<double>(std::thread::hardware_concurrency()));
  stamp.Set("cpu_model", CpuModel());
  stamp.Set("simd_level", urbane::raster::SimdLevelName(
                              urbane::raster::ActiveSimdLevel()));
  stamp.Set("build_type", URBENCH_BUILD_TYPE);
  stamp.Set("compiler", URBENCH_COMPILER);
  stamp.Set("workload", workload);
  stamp.Set("seed", static_cast<double>(seed));
  stamp.Set("scale", scale);
  stamp.Set("seconds", seconds);
  stamp.Set("trace", trace);
  return stamp;
}

std::string ResultLine(bool correct, const PhaseCounts& total,
                       const MetricSet& metrics) {
  JsonValue::Object doc;
  doc.emplace_back("correct", JsonValue(correct));
  doc.emplace_back("attempted",
                   JsonValue(static_cast<double>(total.attempted)));
  doc.emplace_back("failed", JsonValue(static_cast<double>(total.failed())));
  doc.emplace_back("metrics", metrics.ToJson());
  return JsonValue(std::move(doc)).Dump(-1);
}

}  // namespace urbench
