#ifndef URBENCH_WORKLOAD_H_
#define URBENCH_WORKLOAD_H_

// Seeded request generation for the serving benchmark. Everything the
// server receives is produced here from (workload, seed, client index), so
// one seed always yields the same request bytes in the same order, however
// fast the server answers.

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/point_table.h"

namespace urbench {

/// The synthetic taxi month every workload queries (2009-01, 31 days).
constexpr std::int64_t kMonthStart = 1230768000;
constexpr std::int64_t kMonthSeconds = 31LL * 24 * 3600;
constexpr std::int64_t kMonthEnd = kMonthStart + kMonthSeconds;
/// Live workload: the ingest batches carry the day after the month in time
/// order, spread over that whole day however many batches a run sends, and
/// live queries brush the window from the month's last day through the
/// appended day, so every appended row lies inside the readers' window.
constexpr std::int64_t kLiveSpanSeconds = 24 * 3600;
constexpr std::int64_t kLiveQueryBegin = kMonthEnd - 24 * 3600;
constexpr std::int64_t kLiveQueryEnd = kMonthEnd + kLiveSpanSeconds;

/// Request stream identity. Each (workload, seed, stream) triple is an
/// independent deterministic generator.
enum class Workload { kSession, kCrowd, kLive };
const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// splitmix64 mix of the arguments: sub-seeds for independent streams.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// One visual-analytics state: the aggregate, the region layer, the time
/// brush, an optional attribute filter and the executor the client asks
/// for. Renders to one statement in the paper's SQL dialect.
struct Brush {
  std::string aggregate;  // COUNT, SUM, AVG, MIN, MAX
  std::string attribute;  // "*" for COUNT
  std::string dataset;
  std::string layer;      // nbhd | tracts
  std::string method;     // auto | raster | accurate | index
  std::int64_t t0 = 0;    // half-open [t0, t1)
  std::int64_t t1 = 0;
  std::string filter_attribute;  // empty: no attribute filter
  int filter_lo = 0;             // closed [lo, hi]
  int filter_hi = 0;

  std::string Sql() const;
  /// {"sql": ..., "method": ...}
  std::string Body() const;
};

/// One generated request: the JSON body plus what the client needs to
/// interpret the answer.
struct QueryRequest {
  std::uint64_t index = 0;  // position in its stream
  Brush brush;
  bool pooled = false;  // crowd: a revisit of a pre-warmed pool state
  std::string body;
};

/// HTTP/1.1 bytes of a POST. `traceparent` may be empty (not sent).
std::string HttpPost(const std::string& target, const std::string& body,
                     const std::string& traceparent);

/// A fig8-style brushing session: gestures of kGestureFrames frames, each
/// gesture fixing layer, aggregate, filter, brush width and method while
/// the time brush slides across the domain. The cost-setting choices are
/// dealt from shuffled decks (every method x layer x width combination
/// once per deck, aggregates and filters by weight), so a run's mix is the
/// same for every seed and only the order and the windows vary. States
/// never repeat within a stream; `residue`/`modulus` pin every brush start
/// into one residue class (in seconds) so concurrent streams never share a
/// state either, and no generated start is hour-aligned (hour-aligned
/// states are reserved for the crowd pool).
class SessionGenerator {
 public:
  SessionGenerator(std::uint64_t seed, std::string dataset,
                   std::int64_t begin, std::int64_t end,
                   std::vector<std::string> methods, int residue = 0,
                   int modulus = 1);
  Brush Next();

 private:
  static constexpr int kGestureFrames = 10;

  void StartGesture();
  /// Pops the next card, reshuffling a fresh deck of `size` when empty.
  int Deal(std::vector<int>* deck, int size);

  std::mt19937_64 rng_;
  std::vector<int> combo_deck_, aggregate_deck_, filter_deck_;
  std::string dataset_;
  std::int64_t begin_;
  std::int64_t end_;
  std::vector<std::string> methods_;
  int residue_;
  int modulus_;
  Brush gesture_;
  std::int64_t width_ = 0;
  std::int64_t step_ = 0;
  int frames_left_ = 0;
  std::unordered_set<std::string> seen_;
};

/// The crowd's shared pool: `size` distinct hour-aligned states.
std::vector<Brush> CrowdPool(std::uint64_t seed, std::size_t size);

/// Per-client request stream for one workload. `pool` is used by the crowd
/// workload only (borrowed, must outlive the stream).
class RequestStream {
 public:
  /// Share of crowd requests that revisit a pool state.
  static constexpr double kRevisitProbability = 0.5;

  RequestStream(Workload workload, std::uint64_t seed, int client,
                const std::vector<Brush>* pool);
  QueryRequest Next();

 private:
  Workload workload_;
  std::mt19937_64 rng_;
  const std::vector<Brush>* pool_;
  SessionGenerator session_;
  std::uint64_t next_index_ = 0;
};

/// Live workload schedule: `batches` ingest batches of `batch_rows` rows
/// whose times fall in [t_begin, t_begin + span_seconds), in time order.
struct IngestPlan {
  std::size_t batch_rows = 0;
  std::vector<std::string> bodies;  // urbane ingest JSON, one per batch
  urbane::data::PointTable rows;          // all batches concatenated, in order
};

/// Builds the ingest batches for dataset `dataset` from `seed`. Coordinates
/// and attributes are printed with float round-trip precision, so the rows
/// the server parses equal `rows` bit for bit.
IngestPlan MakeIngestPlan(std::uint64_t seed, const std::string& dataset,
                          std::size_t batches, std::size_t batch_rows,
                          std::int64_t t_begin, std::int64_t span_seconds);

}  // namespace urbench

#endif  // URBENCH_WORKLOAD_H_
