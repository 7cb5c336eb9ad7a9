#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "data/taxi_generator.h"

namespace urbench {

namespace {

// Library-independent draws (std distributions differ across standard
// libraries; the request stream must not).
std::uint64_t Below(std::mt19937_64& rng, std::uint64_t n) { return rng() % n; }
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

struct Choice {
  const char* aggregate;
  const char* attribute;
  int weight;
};
// Aggregates of the paper's Figure 8 session: counts dominate, then the
// fare/tip/distance sums and averages, then extrema.
constexpr Choice kAggregates[] = {
    {"COUNT", "*", 8},           {"SUM", "fare_amount", 3},
    {"AVG", "tip_amount", 3},    {"AVG", "trip_distance", 2},
    {"MIN", "fare_amount", 2},   {"MAX", "trip_distance", 2},
};

const Choice& PickAggregate(std::mt19937_64& rng) {
  int total = 0;
  for (const Choice& c : kAggregates) total += c.weight;
  int draw = static_cast<int>(Below(rng, total));
  for (const Choice& c : kAggregates) {
    if (draw < c.weight) return c;
    draw -= c.weight;
  }
  return kAggregates[0];
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSession: return "session";
    case Workload::kCrowd: return "crowd";
    case Workload::kLive: return "live";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kSession, Workload::kCrowd,
                           Workload::kLive}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL);
  for (int i = 0; i < 2; ++i) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  return z;
}

std::string Brush::Sql() const {
  std::string sql = "SELECT " + aggregate + "(" + attribute + ") FROM " +
                    dataset + ", " + layer + " WHERE t IN [" +
                    std::to_string(t0) + ", " + std::to_string(t1) + ")";
  if (!filter_attribute.empty()) {
    sql += " AND " + filter_attribute + " IN [" + std::to_string(filter_lo) +
           ", " + std::to_string(filter_hi) + "]";
  }
  return sql;
}

std::string Brush::Body() const {
  return "{\"sql\": \"" + JsonEscape(Sql()) + "\", \"method\": \"" + method +
         "\"}";
}

std::string HttpPost(const std::string& target, const std::string& body,
                     const std::string& traceparent) {
  std::string wire = "POST " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/json\r\n";
  if (!traceparent.empty()) wire += "traceparent: " + traceparent + "\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

SessionGenerator::SessionGenerator(std::uint64_t seed, std::string dataset,
                                   std::int64_t begin, std::int64_t end,
                                   std::vector<std::string> methods,
                                   int residue, int modulus)
    : rng_(seed),
      dataset_(std::move(dataset)),
      begin_(begin),
      end_(end),
      methods_(std::move(methods)),
      residue_(residue),
      modulus_(std::max(1, modulus)) {}

int SessionGenerator::Deal(std::vector<int>* deck, int size) {
  if (deck->empty()) {
    for (int i = 0; i < size; ++i) deck->push_back(i);
    for (int i = size - 1; i > 0; --i) {
      std::swap((*deck)[i], (*deck)[Below(rng_, i + 1)]);
    }
  }
  const int card = deck->back();
  deck->pop_back();
  return card;
}

void SessionGenerator::StartGesture() {
  // Brush widths relative to the domain: the paper's session brushes from
  // under a day to most of a week of the month.
  const double fractions[] = {1.0 / 40, 1.0 / 15, 1.0 / 6};
  const int methods = static_cast<int>(methods_.size());
  const int combo = Deal(&combo_deck_, methods * 2 * 3);
  int weights = 0;
  for (const Choice& c : kAggregates) weights += c.weight;
  int card = Deal(&aggregate_deck_, weights);
  const Choice* agg = &kAggregates[0];
  for (const Choice& c : kAggregates) {
    if (card < c.weight) {
      agg = &c;
      break;
    }
    card -= c.weight;
  }
  gesture_ = Brush();
  gesture_.aggregate = agg->aggregate;
  gesture_.attribute = agg->attribute;
  gesture_.dataset = dataset_;
  gesture_.method = methods_[combo % methods];
  gesture_.layer = (combo / methods) % 2 == 0 ? "nbhd" : "tracts";
  const double fraction = fractions[combo / (methods * 2)];
  // Three gestures in ten filter on an attribute.
  switch (Deal(&filter_deck_, 10)) {
    case 0:
      gesture_.filter_attribute = "passenger_count";
      gesture_.filter_lo = 1;
      gesture_.filter_hi = 2;
      break;
    case 1:
    case 2:
      gesture_.filter_attribute = "fare_amount";
      gesture_.filter_lo = 5 + static_cast<int>(Below(rng_, 6));
      gesture_.filter_hi = gesture_.filter_lo + 15;
      break;
    default:
      break;
  }
  const std::int64_t span = end_ - begin_;
  width_ = static_cast<std::int64_t>(span * fraction *
                                     (0.9 + 0.2 * Unit(rng_)));
  width_ = std::max<std::int64_t>(width_, 600);
  frames_left_ = kGestureFrames;
  step_ = std::max<std::int64_t>(width_ / 8, 60);
  const std::int64_t travel = step_ * frames_left_;
  const std::int64_t room = std::max<std::int64_t>(span - width_ - travel, 1);
  gesture_.t0 = begin_ + static_cast<std::int64_t>(Below(rng_, room));
  if (Below(rng_, 2) == 0) step_ = -step_;
  if (step_ < 0) gesture_.t0 += travel;
}

Brush SessionGenerator::Next() {
  for (;;) {
    if (frames_left_ <= 0) StartGesture();
    --frames_left_;
    Brush brush = gesture_;
    // Jitter the drag by a few seconds per frame, as a hand does, then
    // snap into this stream's residue class and off the hour grid.
    std::int64_t t0 = gesture_.t0 + static_cast<std::int64_t>(Below(rng_, 97));
    t0 -= ((t0 % modulus_) + modulus_) % modulus_;
    t0 += residue_;
    if (t0 % 3600 == 0) t0 += modulus_;
    brush.t0 = t0;
    brush.t1 = t0 + width_;
    gesture_.t0 += step_;
    if (seen_.insert(brush.Sql() + "|" + brush.method).second) return brush;
  }
}

std::vector<Brush> CrowdPool(std::uint64_t seed, std::size_t size) {
  std::mt19937_64 rng(MixSeed(seed, 0xC0FFEE));
  const std::vector<std::string> methods = {"auto", "raster", "accurate",
                                            "index"};
  std::vector<Brush> pool;
  std::unordered_set<std::string> seen;
  while (pool.size() < size) {
    const Choice& agg = PickAggregate(rng);
    Brush brush;
    brush.aggregate = agg.aggregate;
    brush.attribute = agg.attribute;
    brush.dataset = "taxi";
    // Layers and methods alternate so every seed's pool has the same mix.
    brush.layer = pool.size() % 2 == 0 ? "nbhd" : "tracts";
    brush.method = methods[(pool.size() / 2) % methods.size()];
    const std::int64_t hours = kMonthSeconds / 3600;
    const std::int64_t width = 12 + static_cast<std::int64_t>(Below(rng, 96));
    brush.t0 = kMonthStart +
               3600 * static_cast<std::int64_t>(Below(rng, hours - width));
    brush.t1 = brush.t0 + 3600 * width;
    if (seen.insert(brush.Sql() + "|" + brush.method).second) {
      pool.push_back(std::move(brush));
    }
  }
  return pool;
}

namespace {

SessionGenerator MakeSessionFor(Workload workload, std::uint64_t seed,
                                int client) {
  const std::uint64_t sub = MixSeed(seed, static_cast<int>(workload) + 1,
                                    static_cast<std::uint64_t>(client) + 1);
  switch (workload) {
    case Workload::kSession:
      return SessionGenerator(sub, "taxi", kMonthStart, kMonthEnd,
                              {"auto", "raster", "accurate", "index"});
    case Workload::kCrowd:
      return SessionGenerator(sub, "taxi", kMonthStart, kMonthEnd,
                              {"auto", "raster", "accurate", "index"},
                              client, 8);
    case Workload::kLive:
      return SessionGenerator(sub, "live", kLiveQueryBegin, kLiveQueryEnd,
                              {"raster", "accurate", "index"}, client, 8);
  }
  return SessionGenerator(sub, "taxi", kMonthStart, kMonthEnd, {"auto"});
}

}  // namespace

RequestStream::RequestStream(Workload workload, std::uint64_t seed,
                             int client, const std::vector<Brush>* pool)
    : workload_(workload),
      rng_(MixSeed(seed, 0xB0B, static_cast<std::uint64_t>(client))),
      pool_(pool),
      session_(MakeSessionFor(workload, seed, client)) {}

QueryRequest RequestStream::Next() {
  QueryRequest request;
  request.index = next_index_++;
  if (workload_ == Workload::kCrowd && pool_ != nullptr && !pool_->empty() &&
      Unit(rng_) < kRevisitProbability) {
    request.brush = (*pool_)[Below(rng_, pool_->size())];
    request.pooled = true;
  } else {
    request.brush = session_.Next();
  }
  request.body = request.brush.Body();
  return request;
}

IngestPlan MakeIngestPlan(std::uint64_t seed, const std::string& dataset,
                          std::size_t batches, std::size_t batch_rows,
                          std::int64_t t_begin, std::int64_t span_seconds) {
  IngestPlan plan;
  plan.batch_rows = batch_rows;
  urbane::data::TaxiGeneratorOptions options;
  options.num_trips = batches * batch_rows;
  options.seed = MixSeed(seed, 0x1A6E57);
  options.start_time = t_begin;
  options.duration_seconds = span_seconds;
  const urbane::data::PointTable trips =
      urbane::data::GenerateTaxiTrips(options);

  // Arrival order is time order: each batch covers the next time slice.
  std::vector<std::size_t> order(trips.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trips.t(a) < trips.t(b);
                   });
  const std::size_t attrs = trips.schema().attribute_count();
  plan.rows = urbane::data::PointTable(trips.schema());
  plan.rows.Reserve(trips.size());
  std::vector<float> values(attrs);
  plan.bodies.reserve(batches);
  char cell[64];
  for (std::size_t b = 0; b < batches; ++b) {
    std::string body = "{\"dataset\": \"" + dataset + "\", \"rows\": [";
    for (std::size_t r = 0; r < batch_rows; ++r) {
      const std::size_t i = order[b * batch_rows + r];
      for (std::size_t a = 0; a < attrs; ++a) values[a] = trips.attribute(i, a);
      (void)plan.rows.AppendRow(trips.x(i), trips.y(i), trips.t(i), values);
      std::snprintf(cell, sizeof(cell), "%s[%.9g, %.9g, %" PRId64,
                    r == 0 ? "" : ", ", static_cast<double>(trips.x(i)),
                    static_cast<double>(trips.y(i)),
                    static_cast<std::int64_t>(trips.t(i)));
      body += cell;
      for (std::size_t a = 0; a < attrs; ++a) {
        std::snprintf(cell, sizeof(cell), ", %.9g",
                      static_cast<double>(values[a]));
        body += cell;
      }
      body += "]";
    }
    body += "]}";
    plan.bodies.push_back(std::move(body));
  }
  return plan;
}

}  // namespace urbench
