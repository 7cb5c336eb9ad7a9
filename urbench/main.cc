// urbench: the Urbane serving benchmark.
//
// Drives the real server::QueryServer over loopback HTTP with one of three
// seeded workloads (session, crowd, live), checks the answers against the
// scan executor in-process, and prints the run's metrics as one JSON line.
// With --trace 1 the same workload runs with per-request profiles and the
// benchmark's own spans, and the line carries the per-layer breakdown
// instead. See README.md for the workloads and the metric map.
//
//   urbench --workload session --seed 1 --seconds 20 --trace 0
//           [--scale 1] [--work-dir DIR] [--report FILE]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client.h"
#include "core/sql.h"
#include "data/json.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "net/http.h"
#include "obs/profile.h"
#include "report.h"
#include "server/json_api.h"
#include "server/query_server.h"
#include "shard/shard_merge.h"
#include "spans.h"
#include "store/store_writer.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"
#include "workload.h"

namespace urbench {
namespace {

using namespace urbane;
using data::JsonValue;

// ---- Workload sizing -------------------------------------------------------
// Taxi rows per unit of --scale. At this size a session frame averages
// ~10 ms, so a run collects well over the 1000 frames a supported p99
// needs, and the tracts layer's answers (2116 regions, ~34 KB each) keep
// the crowd's 1024-entry cache far below its 256 MiB byte bound. The live
// base is half as large: its readers compose base, runs and hot rows.
constexpr std::size_t kRowsPerScale = 200'000;
constexpr std::size_t kLiveBaseRowsPerScale = 100'000;
// The data set is the benchmark's fixed city; --seed varies what the
// analysts do with it (the request streams), not where the trips are.
constexpr std::uint64_t kCitySeed = 42;
constexpr int kServerWorkers = 4;  // QueryServerOptions default
constexpr std::size_t kCacheEntries = 1024;  // CLI `cache ... on` default
constexpr std::size_t kCrowdPool = 128;      // shared, pre-warmed states
constexpr int kCrowdClients = 4;             // == nproc on the target host
constexpr double kWarmupSeconds = 1.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
constexpr double kInteractiveMs = 100.0;  // the paper's frame budget
// Live: one open-loop writer (a 50-row batch every 10 ms = 5k rows/s), two
// closed-loop readers, background flush every 20k rows and a compaction
// after every 500 acknowledged batches.
constexpr int kLiveQueryClients = 2;
constexpr std::int64_t kIngestPeriodNs = 10'000'000;
constexpr std::size_t kLiveBatchRows = 50;
constexpr std::size_t kAutoFlushRows = 20'000;
constexpr std::size_t kCompactEveryBatches = 500;
// Session and crowd append a fixed closed-loop probe to a side data set
// after their query phase: the unloaded write path (no flush falls inside
// the probe; the final flush and compaction follow it). Batches are large
// so that thread wake-up jitter on an idle host stays a small share of
// each batch's latency.
constexpr std::size_t kProbeBatches = 400;
constexpr std::size_t kProbeBatchRows = 500;
// Answer checks: every request whose seeded hash hits 1 in kSampleEvery is
// kept, and an even stride of up to kVerifyMax of them, across clients and
// run time, is re-run with the scan executor.
constexpr std::uint64_t kSampleEvery = 24;
constexpr std::size_t kVerifyMaxStatic = 48;
constexpr std::size_t kVerifyMaxLive = 16;
// Bytes of one user row as the client sends it: x, y (float), t (int64)
// and four float attributes.
constexpr double kRowBytes = 4 + 4 + 8 + 4 * 4;

struct Options {
  Workload workload = Workload::kSession;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".bench_work";
  std::string report_path;
};

// ---- Small helpers ---------------------------------------------------------

double MsSince(std::int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

// write_bytes of /proc/self/io: bytes this process caused to be sent to
// the storage layer (socket traffic does not count here, unlike wchar).
double ProcWriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

/// Cumulative CPU ticks of the host: {steal, total} from /proc/stat. On a
/// shared virtual machine, time the hypervisor gives to other guests shows
/// as steal and slows every phase; the report records its share.
std::pair<double, double> StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, total = 0, value = 0;
  for (int field = 0; field < 10 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double DirectoryBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<double>(it->file_size(ec));
  }
  return total;
}

std::string Hex(std::uint64_t value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(value));
  return buf;
}

const JsonValue* Path(const JsonValue* node,
                      std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    if (node == nullptr || !node->is_object()) return nullptr;
    node = node->Find(key);
  }
  return node;
}

double Number(const JsonValue* node) {
  return node != nullptr && node->is_number() ? node->AsNumber() : 0.0;
}

/// Components a live query composes: base, store and sealed runs, hot run.
std::size_t Components(const ingest::IngestStats& stats) {
  return (stats.base_rows > 0 ? 1 : 0) + stats.store_runs +
         stats.sealed_runs + (stats.hot_rows > 0 ? 1 : 0);
}

std::optional<core::ExecutionMethod> ConcreteMethod(const std::string& name) {
  StatusOr<std::optional<core::ExecutionMethod>> parsed =
      server::ParseMethodName(name);
  return parsed.ok() ? *parsed : std::nullopt;
}

// ---- Set-up ----------------------------------------------------------------

/// One set-up instance: data, manager, backend and a running server.
/// Members are destroyed in reverse order, so the server stops first.
struct World {
  std::string dir;
  std::unique_ptr<app::DatasetManager> manager;
  std::unique_ptr<app::DatasetManagerBackend> backend;
  std::unique_ptr<server::QueryServer> server;
  std::string dataset;  // "taxi" or "live"
  std::uint64_t base_rows = 0;
  double setup_s = 0, generate_s = 0, store_open_ms = 0, first_query_ms = 0;
};

ingest::IngestOptions LiveIngestOptions(bool background_flush) {
  ingest::IngestOptions options;
  options.auto_flush_rows = background_flush ? kAutoFlushRows : 0;
  return options;
}

StatusOr<std::unique_ptr<World>> SetUp(const Options& options,
                                       const std::string& dir) {
  auto world = std::make_unique<World>();
  world->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);

  const std::int64_t start = NowNs();
  data::TaxiGeneratorOptions taxi;
  const bool live = options.workload == Workload::kLive;
  taxi.num_trips = std::max<std::size_t>(
      1000, static_cast<std::size_t>(
                (live ? kLiveBaseRowsPerScale : kRowsPerScale) *
                options.scale));
  taxi.seed = kCitySeed;
  data::PointTable trips = data::GenerateTaxiTrips(taxi);
  data::RegionSet nbhd = data::GenerateNeighborhoods();
  data::RegionSet tracts = data::GenerateCensusTracts();
  world->generate_s = MsSince(start) / 1e3;
  world->base_rows = trips.size();

  world->manager = std::make_unique<app::DatasetManager>();
  app::DatasetManager& manager = *world->manager;
  URBANE_RETURN_IF_ERROR(manager.AddRegionLayer("nbhd", std::move(nbhd)));
  URBANE_RETURN_IF_ERROR(manager.AddRegionLayer("tracts", std::move(tracts)));
  if (live) {
    world->dataset = "live";
    const std::string base_path = dir + "/base.ust1";
    URBANE_RETURN_IF_ERROR(store::WritePointStore(trips, base_path).status());
    trips = data::PointTable();
    const std::int64_t open_start = NowNs();
    URBANE_RETURN_IF_ERROR(manager.AddStoreDataset("live", base_path));
    world->store_open_ms = MsSince(open_start);
    URBANE_RETURN_IF_ERROR(manager.EnableIngest("live", dir + "/live", {},
                                                LiveIngestOptions(true)));
  } else {
    world->dataset = "taxi";
    URBANE_RETURN_IF_ERROR(manager.AddPointDataset("taxi", std::move(trips)));
  }

  world->backend = std::make_unique<app::DatasetManagerBackend>(&manager);
  server::QueryServerOptions server_options;
  server_options.worker_threads = kServerWorkers;
  world->server =
      std::make_unique<server::QueryServer>(world->backend.get(),
                                            server_options);
  URBANE_RETURN_IF_ERROR(world->server->Start());

  // Lazy executor and canvas builds happen on a pair's first query; pay
  // them here so the measured phase sees steady-state serving.
  const std::int64_t warm_start = NowNs();
  for (const char* layer : {"nbhd", "tracts"}) {
    if (options.workload == Workload::kCrowd) {
      URBANE_ASSIGN_OR_RETURN(core::SpatialAggregation * engine,
                              manager.Engine("taxi", layer));
      engine->set_result_cache_capacity(kCacheEntries);
    }
    const std::string sql = "SELECT COUNT(*) FROM " + world->dataset + ", " +
                            layer;
    for (const char* method : {"raster", "accurate", "index"}) {
      URBANE_RETURN_IF_ERROR(world->backend
                                 ->ExecuteSql(sql, ConcreteMethod(method),
                                              nullptr, nullptr)
                                 .status());
    }
  }
  world->first_query_ms = MsSince(warm_start);
  world->setup_s = MsSince(start) / 1e3;
  return world;
}

// ---- Load phase ------------------------------------------------------------

/// A request kept for the answer checks (and the traced replays).
struct Sample {
  int client = 0;
  std::uint64_t index = 0;
  Brush brush;
  std::string wire;
  std::string response;
};

/// What a traced request's urbane.profile.v1 document says.
struct ProfileRecord {
  std::string method;
  bool hit = false;
  double queue_wait_ms = 0, wall_ms = 0, cpu_ms = 0;
  double filter_ms = 0, splat_ms = 0, sweep_ms = 0, reduce_ms = 0,
         refine_ms = 0;
  double points_scanned = 0, pip_tests = 0, pixels = 0, boundary = 0,
         simd = 0;
  bool joined = false;  // the profile's trace id is the one the client sent
  double components = 0;
};

struct ClientResult {
  PhaseCounts counts;
  std::vector<double> latencies_ms;  // successful requests
  std::uint64_t within_budget = 0;
  std::vector<Sample> samples;
  // Traced runs only.
  std::vector<double> traced_ms, untraced_ms, connect_ms, response_bytes;
  std::vector<ProfileRecord> profiles;
  SpanLog spans;
};

bool KeepSample(std::uint64_t seed, int client, std::uint64_t index) {
  return MixSeed(seed, 0x5A11, (static_cast<std::uint64_t>(client) << 40) ^
                                   index) %
             kSampleEvery ==
         0;
}

ProfileRecord ParseProfile(const JsonValue& doc, const std::string& trace_id) {
  ProfileRecord record;
  const JsonValue* profile = doc.Find("profile");
  if (profile == nullptr || !profile->is_object()) return record;
  if (const JsonValue* m = profile->Find("method"); m && m->is_string()) {
    record.method = m->AsString();
  }
  if (const JsonValue* c = profile->Find("cache"); c && c->is_string()) {
    record.hit = c->AsString() == "hit";
  }
  if (const JsonValue* t = profile->Find("trace_id"); t && t->is_string()) {
    record.joined = t->AsString() == trace_id;
  }
  record.queue_wait_ms =
      1e3 * Number(Path(profile, {"request", "queue_wait_seconds"}));
  record.wall_ms = 1e3 * Number(Path(profile, {"request", "wall_seconds"}));
  record.cpu_ms = 1e3 * Number(Path(profile, {"request", "cpu_seconds"}));
  const JsonValue* totals = Path(profile, {"executor", "totals"});
  record.filter_ms = 1e3 * Number(Path(totals, {"filter_seconds"}));
  record.splat_ms = 1e3 * Number(Path(totals, {"splat_seconds"}));
  record.sweep_ms = 1e3 * Number(Path(totals, {"sweep_seconds"}));
  record.reduce_ms = 1e3 * Number(Path(totals, {"reduce_seconds"}));
  record.refine_ms = 1e3 * Number(Path(totals, {"refine_seconds"}));
  record.points_scanned = Number(Path(totals, {"points_scanned"}));
  record.pip_tests = Number(Path(totals, {"pip_tests"}));
  record.pixels = Number(Path(totals, {"pixels_touched"}));
  record.boundary = Number(Path(totals, {"boundary_pixels"}));
  record.simd = Number(Path(totals, {"simd_fragments"}));
  return record;
}

/// One closed-loop query client: sends its stream's next request as soon
/// as the previous answer arrives, until `deadline_ns`. Requests issued
/// before `measure_ns` are warm-up and not recorded. A traced run profiles
/// every odd request of the stream: neighbouring frames of one gesture are
/// alike, so the untraced half is the traced half's control group for
/// obs.trace_overhead_pct.
void RunQueryClient(const Options& options, World* world, int client,
                    const std::vector<Brush>* pool, std::int64_t measure_ns,
                    std::int64_t deadline_ns, ClientResult* out) {
  RequestStream stream(options.workload, options.seed, client, pool);
  RequestStream warmup(options.workload, MixSeed(options.seed, 0x3A73),
                       client, pool);
  const std::uint16_t port = world->server->port();
  for (;;) {
    const std::int64_t now = NowNs();
    if (now >= deadline_ns) break;
    const bool measured = now >= measure_ns;
    const QueryRequest request = measured ? stream.Next() : warmup.Next();
    const bool traced = measured && options.trace && request.index % 2 == 1;
    std::string trace_id;
    std::string wire;
    if (traced) {
      const std::uint64_t hi = MixSeed(options.seed, client + 1, request.index);
      const std::uint64_t lo = MixSeed(hi, 0x7ACE);
      trace_id = Hex(hi, 16) + Hex(lo, 16);
      wire = HttpPost("/v1/query?profile=1", request.body,
                      "00-" + trace_id + "-" + Hex(lo | 1, 16) + "-01");
    } else {
      wire = HttpPost("/v1/query", request.body, "");
    }
    const HttpExchange exchange = Exchange(port, wire);
    if (!measured) continue;
    out->counts.Record(exchange.status);
    const double ms = exchange.latency_ms();
    if (exchange.status == 200) {
      out->latencies_ms.push_back(ms);
      if (ms <= kInteractiveMs) ++out->within_budget;
    }
    if (options.trace && exchange.status == 200) {
      (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
    }
    if (traced && exchange.status == 200) {
      const std::uint64_t root = out->spans.Add(
          "client.request", exchange.start_ns, exchange.end_ns, 0, trace_id);
      out->spans.Add("client.connect", exchange.start_ns,
                     exchange.connected_ns, root, trace_id);
      out->spans.Add("client.send", exchange.connected_ns, exchange.sent_ns,
                     root, trace_id);
      out->spans.Add("client.wait", exchange.sent_ns, exchange.end_ns, root,
                     trace_id);
      out->connect_ms.push_back((exchange.connected_ns - exchange.start_ns) /
                                1e6);
      out->response_bytes.push_back(
          static_cast<double>(exchange.body.size()));
      if (StatusOr<JsonValue> doc = data::ParseJson(exchange.body);
          doc.ok()) {
        ProfileRecord record = ParseProfile(*doc, trace_id);
        if (options.workload == Workload::kLive) {
          if (const auto stats = world->manager->IngestStatsFor("live");
              stats.ok()) {
            record.components = static_cast<double>(Components(*stats));
          }
        }
        out->profiles.push_back(std::move(record));
      }
    }
    if (KeepSample(options.seed, client, request.index)) {
      Sample sample;
      sample.client = client;
      sample.index = request.index;
      sample.brush = request.brush;
      sample.wire = wire;
      if (exchange.status == 200) sample.response = exchange.body;
      out->samples.push_back(std::move(sample));
    }
  }
}

// ---- Ingest ----------------------------------------------------------------

struct IngestResult {
  PhaseCounts counts;
  std::vector<double> latencies_ms;  // open loop: from when the batch was due
  std::vector<double> late_ms;       // how late the generator sent it
  std::vector<double> server_ms;     // the server's own elapsed_ms
  std::vector<double> compact_ms;
  std::uint64_t acked_batches = 0;
  bool prefix_intact = true;  // every batch applied, in order
};

double ElapsedMsField(const std::string& body) {
  const std::size_t at = body.find("\"elapsed_ms\":");
  return at == std::string::npos ? 0.0
                                 : std::atof(body.c_str() + at + 13);
}

/// Sends batch `k` until it is applied: a 429 (write path saturated) is
/// counted and retried verbatim, as the server's 429 semantics prescribe; any
/// other failure ends the stream.
bool SendBatch(std::uint16_t port, const std::string& wire,
               std::int64_t due_ns, bool open_loop, IngestResult* out) {
  for (;;) {
    const HttpExchange exchange = Exchange(port, wire);
    out->counts.Record(exchange.status);
    if (exchange.status == 200) {
      out->latencies_ms.push_back(
          (exchange.end_ns - (open_loop ? due_ns : exchange.start_ns)) / 1e6);
      if (open_loop) out->late_ms.push_back((exchange.start_ns - due_ns) / 1e6);
      out->server_ms.push_back(ElapsedMsField(exchange.body));
      ++out->acked_batches;
      return true;
    }
    if (exchange.status != 429) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// The live writer: batch k is due at start + k * period (open loop) and is
/// timed from then, so a stall shows in every batch queued behind it. A
/// maintenance thread compacts after every kCompactEveryBatches batches.
void RunLiveWriter(World* world, const IngestPlan& plan,
                   std::int64_t start_ns, std::int64_t deadline_ns,
                   IngestResult* out) {
  std::mutex mu;
  std::condition_variable cv;
  int compactions_due = 0;
  bool stop = false;
  std::thread maintenance([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return stop || compactions_due > 0; });
      if (compactions_due == 0) return;
      --compactions_due;
      lock.unlock();
      const std::int64_t begin = NowNs();
      const Status status = world->manager->CompactIngest("live");
      const double ms = MsSince(begin);
      lock.lock();
      if (status.ok()) out->compact_ms.push_back(ms);
    }
  });
  const std::uint16_t port = world->server->port();
  for (std::size_t k = 0; k < plan.bodies.size(); ++k) {
    const std::int64_t due = start_ns + static_cast<std::int64_t>(k) *
                                            kIngestPeriodNs;
    if (due >= deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    if (!SendBatch(port, HttpPost("/v1/ingest", plan.bodies[k], ""), due,
                   true, out)) {
      out->prefix_intact = false;
      break;
    }
    if (out->acked_batches % kCompactEveryBatches == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ++compactions_due;
      cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
    compactions_due = 0;
    cv.notify_one();
  }
  maintenance.join();
}

struct IngestSummary {
  double flushes = 0, rejected = 0, space_amp = 0, write_amp = 0;
};

/// Flushes and compacts `dataset`, then relates its bytes on disk and the
/// bytes the process wrote since `write_bytes_before` to the user bytes.
StatusOr<IngestSummary> SettleIngest(World* world, const std::string& dataset,
                                     const std::string& dir,
                                     double write_bytes_before,
                                     double user_rows, IngestResult* result) {
  URBANE_RETURN_IF_ERROR(world->manager->FlushIngest(dataset));
  const std::int64_t begin = NowNs();
  URBANE_RETURN_IF_ERROR(world->manager->CompactIngest(dataset));
  result->compact_ms.push_back(MsSince(begin));
  URBANE_ASSIGN_OR_RETURN(ingest::IngestStats stats,
                          world->manager->IngestStatsFor(dataset));
  IngestSummary summary;
  summary.flushes = static_cast<double>(stats.flushes);
  summary.rejected = static_cast<double>(stats.rejected);
  const double user_bytes = std::max(1.0, user_rows * kRowBytes);
  summary.space_amp = DirectoryBytes(dir) / user_bytes;
  summary.write_amp = (ProcWriteBytes() - write_bytes_before) / user_bytes;
  return summary;
}

// ---- Answer checks ---------------------------------------------------------

struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> messages;  // first few mismatches
  void Fail(std::string message) {
    ++wrong;
    if (messages.size() < 8) messages.push_back(std::move(message));
  }
};

struct ParsedAnswer {
  std::string method;
  std::optional<std::uint64_t> watermark;
  std::vector<double> values;  // null -> NaN
  std::vector<double> counts;
  std::vector<double> bounds;  // empty unless the answer carries them
};

bool ParseAnswer(const std::string& body, ParsedAnswer* out) {
  StatusOr<JsonValue> doc = data::ParseJson(body);
  if (!doc.ok() || !doc->is_object()) return false;
  if (const JsonValue* m = doc->Find("method"); m && m->is_string()) {
    out->method = m->AsString();
  }
  if (const JsonValue* w = doc->Find("watermark"); w && w->is_number()) {
    out->watermark = static_cast<std::uint64_t>(w->AsNumber());
  }
  const JsonValue* regions = doc->Find("regions");
  if (regions == nullptr || !regions->is_array()) return false;
  for (const JsonValue& row : regions->AsArray()) {
    const JsonValue* value = row.Find("value");
    out->values.push_back(value != nullptr && value->is_number()
                              ? value->AsNumber()
                              : std::nan(""));
    out->counts.push_back(Number(row.Find("count")));
    if (const JsonValue* bound = row.Find("error_bound")) {
      out->bounds.push_back(Number(bound));
    }
  }
  return true;
}

bool Close(double got, double want) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want);
  }
  return std::fabs(got - want) <=
         1e-9 * std::max({1.0, std::fabs(got), std::fabs(want)});
}

/// Compares one served answer with the scan executor's. Exact methods
/// must match; the bounded raster must lie within the bound it returned
/// (value bound for COUNT/SUM, boundary-point count for the others).
void CheckAnswer(const Sample& sample, const ParsedAnswer& got,
                 const core::QueryResult& want, core::AggregateKind kind,
                 CheckResult* check) {
  ++check->checked;
  const std::string where = sample.brush.Sql() + " [" + sample.brush.method +
                            "->" + got.method + "]";
  if (got.values.size() != want.values.size()) {
    check->Fail(where + ": region count differs");
    return;
  }
  const bool bounded = got.method == "raster";
  if (bounded && got.bounds.size() != got.values.size()) {
    check->Fail(where + ": bounded answer without error bounds");
    return;
  }
  for (std::size_t r = 0; r < want.values.size(); ++r) {
    const double exact_count = static_cast<double>(want.counts[r]);
    bool ok = true;
    if (!bounded) {
      ok = got.counts[r] == exact_count && Close(got.values[r], want.values[r]);
    } else if (kind == core::AggregateKind::kCount ||
               kind == core::AggregateKind::kSum) {
      const double slack = got.bounds[r] * (1 + 1e-9) + 1e-6;
      ok = std::fabs(got.values[r] - want.values[r]) <= slack;
    } else {
      ok = std::fabs(got.counts[r] - exact_count) <= got.bounds[r] + 1e-9;
    }
    if (!ok) {
      check->Fail(where + ": region " + std::to_string(r) + " got " +
                  std::to_string(got.values[r]) + " want " +
                  std::to_string(want.values[r]));
      return;
    }
  }
}

/// The oracle's rows: the static table, or for live the base rows followed
/// by every acknowledged batch in arrival order. Any watermark W then names
/// the prefix of W rows a live answer must equal.
struct OracleRows {
  std::vector<float> xs, ys;
  std::vector<std::int64_t> ts;
  std::vector<std::vector<float>> attrs;
  data::Schema schema;

  void Append(const data::PointTable& table, std::size_t rows) {
    schema = table.schema();
    attrs.resize(schema.attribute_count());
    xs.insert(xs.end(), table.xs(), table.xs() + rows);
    ys.insert(ys.end(), table.ys(), table.ys() + rows);
    ts.insert(ts.end(), table.ts(), table.ts() + rows);
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      attrs[a].insert(attrs[a].end(), table.attribute_data(a),
                      table.attribute_data(a) + rows);
    }
  }
  StatusOr<data::PointTable> Prefix(std::size_t rows) const {
    std::vector<const float*> columns;
    for (const auto& column : attrs) columns.push_back(column.data());
    return data::PointTable::View(schema, xs.data(), ys.data(), ts.data(),
                                  columns, std::min(rows, xs.size()));
  }
};

void CheckSamples(World* world, const OracleRows& rows,
                  std::vector<Sample*> samples, bool live,
                  CheckResult* check) {
  for (Sample* sample : samples) {
    ParsedAnswer got;
    if (!ParseAnswer(sample->response, &got)) {
      check->Fail(sample->brush.Sql() + ": unparseable answer");
      continue;
    }
    StatusOr<core::ParsedQuery> parsed =
        core::ParseQuerySql(sample->brush.Sql());
    StatusOr<const data::RegionSet*> regions =
        world->manager->RegionLayer(sample->brush.layer);
    const std::size_t prefix =
        live ? (got.watermark ? *got.watermark : 0) : rows.xs.size();
    StatusOr<data::PointTable> table = rows.Prefix(prefix);
    if (!parsed.ok() || !regions.ok() || !table.ok() ||
        (live && (!got.watermark || *got.watermark > rows.xs.size()))) {
      check->Fail(sample->brush.Sql() + ": cannot rebuild the oracle query");
      continue;
    }
    core::SpatialAggregation oracle(*table, **regions);
    core::AggregationQuery query;
    query.aggregate = parsed->aggregate;
    query.filter = parsed->filter;
    StatusOr<core::QueryResult> want =
        oracle.Execute(std::move(query), core::ExecutionMethod::kScan);
    if (!want.ok()) {
      check->Fail(sample->brush.Sql() + ": oracle failed: " +
                  want.status().ToString());
      continue;
    }
    CheckAnswer(*sample, got, *want, parsed->aggregate.kind, check);
  }
}

// ---- Traced replays --------------------------------------------------------

struct ReplayTimes {
  std::vector<double> http_parse_us, api_parse_us, sql_parse_us,
      selectivity_us, execute_sql_ms, execute_sql_self_ms, render_us,
      live_execute_ms, merge_us, ingest_parse_us;
  double blocks_total = 0, blocks_pruned = 0;
};

/// Re-runs the sampled requests layer by layer in-process, each call
/// wrapped in a span: the HTTP parser, the API and SQL parsers, the
/// planner's selectivity estimate, DatasetManager::ExecuteSql (whose self
/// time, outside the facade's execution, is bind and plan), result
/// rendering, and on live the composed engine and the shard merge.
void ReplayLayers(World* world, const std::vector<Sample*>& samples,
                  const IngestPlan* ingest, SpanLog* spans,
                  ReplayTimes* out) {
  app::DatasetManager& manager = *world->manager;
  const bool live = world->dataset == "live";
  const auto timed = [&](const char* name, std::uint64_t parent,
                         auto&& call) {
    const std::int64_t begin = NowNs();
    call();
    const std::int64_t end = NowNs();
    spans->Add(name, begin, end, parent);
    return (end - begin) / 1e3;  // microseconds
  };
  for (Sample* sample : samples) {
    ParsedAnswer answer;
    if (!ParseAnswer(sample->response, &answer)) continue;
    const std::optional<core::ExecutionMethod> method =
        ConcreteMethod(answer.method);
    if (!method) continue;
    const std::string sql = sample->brush.Sql();
    const std::string body = sample->brush.Body();
    const std::int64_t root_begin = NowNs();
    const std::uint64_t root = SpanLog::NewId();

    out->http_parse_us.push_back(timed("net.http_parse", root, [&] {
      net::HttpRequestParser parser;
      parser.Feed(sample->wire.data(), sample->wire.size());
    }));
    out->api_parse_us.push_back(timed("server.api_parse", root, [&] {
      (void)server::ParseApiRequest(body);
    }));
    StatusOr<core::ParsedQuery> parsed = Status::Internal("unparsed");
    out->sql_parse_us.push_back(timed("core.sql_parse", root, [&] {
      parsed = core::ParseQuerySql(sql);
    }));
    StatusOr<core::SpatialAggregation*> engine =
        manager.Engine(world->dataset, sample->brush.layer);
    if (parsed.ok() && engine.ok()) {
      out->selectivity_us.push_back(timed("core.selectivity", root, [&] {
        (void)(*engine)->EstimateSelectivity(parsed->filter);
      }));
    }

    obs::QueryProfile profile;
    const std::int64_t sql_begin = NowNs();
    const bool executed = manager.ExecuteSql(sql, *method, nullptr,
                                             &profile).ok();
    const std::int64_t sql_end = NowNs();
    const std::uint64_t sql_span =
        spans->Add("urbane.execute_sql", sql_begin, sql_end, root);
    if (executed) {
      out->execute_sql_ms.push_back((sql_end - sql_begin) / 1e6);
      if (!live) {
        // The facade's execution is the call's tail: parse, bind and the
        // engine lookup come first, then SpatialAggregation::Execute.
        const std::int64_t facade_ns =
            static_cast<std::int64_t>(profile.wall_seconds * 1e9);
        spans->Add("core.execute", sql_end - facade_ns, sql_end, sql_span);
        out->execute_sql_self_ms.push_back(
            SelfTimeNs(*spans->Find(sql_span), spans->ChildrenOf(sql_span)) /
            1e6);
      }
    }

    StatusOr<server::BackendResult> result =
        world->backend->ExecuteSql(sql, method, nullptr, nullptr);
    if (result.ok()) {
      out->render_us.push_back(timed("server.render", root, [&] {
        (void)server::RenderResult(*result, 1.0).Dump(-1);
      }));
    }

    if (live && parsed.ok()) {
      StatusOr<ingest::LiveEngine*> live_engine =
          manager.Live("live", sample->brush.layer);
      StatusOr<core::QueryResult> partial = Status::Internal("not run");
      if (live_engine.ok()) {
        core::AggregationQuery query;
        query.aggregate = parsed->aggregate;
        query.filter = parsed->filter;
        out->live_execute_ms.push_back(
            timed("ingest.live_execute", root, [&] {
              partial = (*live_engine)->Execute(std::move(query), *method);
            }) /
            1e3);
      }
      StatusOr<ingest::IngestStats> stats = manager.IngestStatsFor("live");
      if (partial.ok() && stats.ok()) {
        const std::vector<core::QueryResult> partials(Components(*stats),
                                                      *partial);
        out->merge_us.push_back(timed("shard.merge", root, [&] {
          (void)shard::MergeShardPartials(parsed->aggregate.kind, partials);
        }));
      }
      // Zone-map pruning of the store-backed base component.
      if (engine.ok()) {
        obs::QueryProfile base_profile;
        core::AggregationQuery query;
        query.aggregate = parsed->aggregate;
        query.filter = parsed->filter;
        query.profile = &base_profile;
        if ((*engine)->Execute(std::move(query), *method).ok()) {
          out->blocks_total += static_cast<double>(base_profile.blocks_total);
          out->blocks_pruned +=
              static_cast<double>(base_profile.blocks_pruned);
        }
      }
    }
    spans->Add("replay", root_begin, NowNs(), 0, std::string(), root);
  }
  if (ingest != nullptr) {
    const std::size_t n = std::min<std::size_t>(32, ingest->bodies.size());
    for (std::size_t i = 0; i < n; ++i) {
      out->ingest_parse_us.push_back(timed("server.ingest_parse", 0, [&] {
        (void)server::ParseIngestRequest(ingest->bodies[i]);
      }));
    }
  }
}

// ---- The run ---------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: urbench --workload session|crowd|live --seed N "
               "--seconds S --trace 0|1 [--scale X] "
               "[--work-dir DIR] [--report FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!ParseWorkload(value, &options->workload)) return false;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--scale") {
      options->scale = std::strtod(value.c_str(), &end);
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else if (key == "--report") {
      options->report_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && options->seconds > 0 && options->scale > 0;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

int Run(const Options& options) {
  const bool live = options.workload == Workload::kLive;

  // Set up kSetups times and keep the last world for the load.
  std::vector<double> setup_s, generate_s, open_ms, first_query_ms;
  std::unique_ptr<World> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    StatusOr<std::unique_ptr<World>> made =
        SetUp(options, options.work_dir + "/setup" + std::to_string(k));
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    world = std::move(*made);
    setup_s.push_back(world->setup_s);
    generate_s.push_back(world->generate_s);
    open_ms.push_back(world->store_open_ms);
    first_query_ms.push_back(world->first_query_ms);
  }

  // Load-generator inputs, built outside every timed phase.
  const std::vector<Brush> pool =
      options.workload == Workload::kCrowd ? CrowdPool(options.seed, kCrowdPool)
                                           : std::vector<Brush>();
  const std::size_t live_batches = static_cast<std::size_t>(
      std::ceil((options.seconds + kWarmupSeconds) * 1e9 / kIngestPeriodNs));
  const IngestPlan plan =
      live ? MakeIngestPlan(kCitySeed + 1, "live", live_batches,
                            kLiveBatchRows, kMonthEnd, kLiveSpanSeconds)
           : MakeIngestPlan(kCitySeed + 1, "side", kProbeBatches,
                            kProbeBatchRows, kMonthEnd, kLiveSpanSeconds);

  // Crowd: every pooled state is answered once before the clock starts, so
  // the hit share is the revisit probability from the first request on.
  if (!pool.empty()) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> warmers;
    for (int t = 0; t < kCrowdClients; ++t) {
      warmers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < pool.size();) {
          (void)world->backend->ExecuteSql(pool[i].Sql(),
                                           ConcreteMethod(pool[i].method),
                                           nullptr, nullptr);
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  const int clients = options.workload == Workload::kSession ? 1
                      : live ? kLiveQueryClients
                             : kCrowdClients;
  const double write_bytes_before = ProcWriteBytes();
  const std::pair<double, double> steal_before = StealTicks();
  const std::int64_t begin_ns = NowNs();
  const std::int64_t measure_ns =
      begin_ns + (live ? 0 : static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  const std::int64_t deadline_ns =
      measure_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunQueryClient, std::cref(options), world.get(), c,
                         &pool, measure_ns, deadline_ns, &results[c]);
  }
  IngestResult ingest_result;
  if (live) {
    RunLiveWriter(world.get(), plan, measure_ns, deadline_ns, &ingest_result);
  }
  for (std::thread& t : threads) t.join();
  const double measured_s = (NowNs() - measure_ns) / 1e9;
  const std::pair<double, double> steal_after = StealTicks();
  const double steal_pct =
      100.0 * Ratio(steal_after.first - steal_before.first,
                    steal_after.second - steal_before.second);

  ClientResult all;
  for (ClientResult& r : results) {
    all.counts.Add(r.counts);
    all.latencies_ms.insert(all.latencies_ms.end(), r.latencies_ms.begin(),
                            r.latencies_ms.end());
    all.within_budget += r.within_budget;
    for (Sample& s : r.samples) all.samples.push_back(std::move(s));
    for (auto v : {&ClientResult::traced_ms, &ClientResult::untraced_ms,
                    &ClientResult::connect_ms,
                    &ClientResult::response_bytes}) {
      (all.*v).insert((all.*v).end(), (r.*v).begin(), (r.*v).end());
    }
    all.profiles.insert(all.profiles.end(), r.profiles.begin(),
                        r.profiles.end());
    all.spans.Merge(r.spans);
  }
  // Request order, interleaving the clients: index grows with run time.
  std::sort(all.samples.begin(), all.samples.end(),
            [](const Sample& a, const Sample& b) {
              return std::tie(a.index, a.client) < std::tie(b.index, b.client);
            });

  // Session and crowd: the closed-loop write probe on a side data set.
  std::string ingest_dataset = "live";
  std::string ingest_dir = world->dir + "/live";
  double ingest_write_before = write_bytes_before;
  if (!live) {
    ingest_dataset = "side";
    ingest_dir = world->dir + "/side";
    std::vector<std::string> attributes(std::begin(data::kTaxiAttributeNames),
                                        std::end(data::kTaxiAttributeNames));
    if (Status status = world->manager->EnableIngest(
            "side", ingest_dir, attributes, LiveIngestOptions(false));
        !status.ok()) {
      std::fprintf(stderr, "ingest probe: %s\n", status.ToString().c_str());
      return 1;
    }
    ingest_write_before = ProcWriteBytes();
    for (const std::string& body : plan.bodies) {
      if (!SendBatch(world->server->port(), HttpPost("/v1/ingest", body, ""),
                     0, false, &ingest_result)) {
        ingest_result.prefix_intact = false;
        break;
      }
    }
  }
  const double acked_rows =
      static_cast<double>(ingest_result.acked_batches * plan.batch_rows);
  StatusOr<IngestSummary> settled =
      SettleIngest(world.get(), ingest_dataset, ingest_dir,
                   ingest_write_before, acked_rows, &ingest_result);
  if (!settled.ok()) {
    std::fprintf(stderr, "flush/compact failed: %s\n",
                 settled.status().ToString().c_str());
    return 1;
  }

  // Answer checks.
  CheckResult check;
  OracleRows rows;
  if (StatusOr<const data::PointTable*> base =
          world->manager->PointDataset(world->dataset);
      base.ok()) {
    rows.Append(**base, (*base)->size());
  }
  if (live) {
    rows.Append(plan.rows, static_cast<std::size_t>(acked_rows));
  }
  // An even stride over the answered samples, so the checks cover every
  // client and the whole run (on live, every flush and compaction cycle).
  std::vector<Sample*> answered;
  for (Sample& s : all.samples) {
    if (!s.response.empty()) answered.push_back(&s);
  }
  const std::size_t picks =
      std::min(live ? kVerifyMaxLive : kVerifyMaxStatic, answered.size());
  std::vector<Sample*> to_check;
  for (std::size_t k = 0; k < picks; ++k) {
    to_check.push_back(answered[k * answered.size() / picks]);
  }
  CheckSamples(world.get(), rows, to_check, live, &check);
  const std::uint64_t sample_wrong = check.wrong;
  PhaseCounts final_check;
  double rows_outside = 0;
  if (live) {
    // The final watermark must be base rows plus acknowledged rows, and an
    // all-time COUNT(*) at that watermark must count every one of them
    // that lies in a region (the generator's tails leave a few dozen rows
    // outside every neighbourhood; the scan oracle counts which).
    const std::uint64_t expected =
        world->base_rows + static_cast<std::uint64_t>(acked_rows);
    double inside = 0;
    StatusOr<data::PointTable> all_rows = rows.Prefix(expected);
    StatusOr<const data::RegionSet*> nbhd =
        world->manager->RegionLayer("nbhd");
    if (all_rows.ok() && nbhd.ok()) {
      core::SpatialAggregation oracle(*all_rows, **nbhd);
      core::AggregationQuery count_all;
      count_all.aggregate = core::AggregateSpec::Count();
      if (StatusOr<core::QueryResult> want =
              oracle.Execute(count_all, core::ExecutionMethod::kScan);
          want.ok()) {
        for (const std::uint64_t c : want->counts) inside += c;
      }
    }
    rows_outside = static_cast<double>(expected) - inside;
    const HttpExchange exchange = Exchange(
        world->server->port(),
        HttpPost("/v1/query",
                 "{\"sql\": \"SELECT COUNT(*) FROM live, nbhd\", "
                 "\"method\": \"accurate\"}",
                 ""));
    final_check.Record(exchange.status);
    ParsedAnswer answer;
    double total = 0;
    if (exchange.status == 200 && ParseAnswer(exchange.body, &answer)) {
      for (const double c : answer.counts) total += c;
    }
    ++check.checked;
    if (!ingest_result.prefix_intact || !answer.watermark ||
        *answer.watermark != expected || rows.xs.size() < expected ||
        total != inside) {
      check.Fail("final watermark " +
                 std::to_string(answer.watermark.value_or(0)) +
                 " (want base+acked " + std::to_string(expected) +
                 "), COUNT(*) " +
                 std::to_string(static_cast<std::uint64_t>(total)) +
                 " (want " + std::to_string(static_cast<std::uint64_t>(inside)) +
                 ")");
      if (exchange.status == 200) ++final_check.wrong;
    }
  }
  // A failed final check counts once, in final_check: as wrong when it
  // was answered 200, otherwise under its HTTP or transport outcome.
  all.counts.wrong += sample_wrong;

  PhaseCounts total;
  total.Add(all.counts);
  total.Add(ingest_result.counts);
  total.Add(final_check);
  const bool correct = check.wrong == 0;

  // End-to-end metrics (untraced) or the per-layer breakdown (traced).
  MetricSet metrics;
  const std::size_t n = all.latencies_ms.size();
  const std::size_t n_ingest = ingest_result.latencies_ms.size();
  if (!TailSupported(n, 0.99)) {
    std::fprintf(stderr,
                 "run too short: %zu query samples leave fewer than %zu "
                 "beyond p99\n",
                 n, kMinTailSamples);
    return 3;
  }
  if (!options.trace) {
    metrics.Set("query_p50_ms", Quantile(all.latencies_ms, 0.50), "ms");
    metrics.Set("query_p99_ms", Quantile(all.latencies_ms, 0.99), "ms");
    metrics.Set("query_rps", all.counts.ok / measured_s, "1/s");
    metrics.Set("interactive_pct",
                100.0 * Ratio(static_cast<double>(all.within_budget),
                              static_cast<double>(all.counts.attempted)),
                "%");
    metrics.Set("ingest_p50_ms", Quantile(ingest_result.latencies_ms, 0.50),
                "ms");
    metrics.Set("ok_pct",
                100.0 * Ratio(static_cast<double>(total.attempted -
                                                  total.failed()),
                              static_cast<double>(total.attempted)),
                "%");
    metrics.Set("space_amp", settled->space_amp, "ratio");
    metrics.Set("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    ReplayTimes replay;
    ReplayLayers(world.get(), to_check, &plan, &all.spans, &replay);
    std::vector<double> queue_wait, offcpu, hits;
    std::map<std::string, std::vector<double>> execute_ms;
    std::vector<double> filter, splat, sweep, reduce, refine, components;
    double pip = 0, scanned = 0, pixels = 0, boundary = 0, simd = 0;
    double joined = 0;
    for (const ProfileRecord& p : all.profiles) {
      queue_wait.push_back(p.queue_wait_ms);
      hits.push_back(p.hit ? 1.0 : 0.0);
      joined += p.joined ? 1 : 0;
      if (live) {
        components.push_back(p.components);
        continue;  // a composed profile's facade fields are per component
      }
      offcpu.push_back(p.wall_ms - p.cpu_ms);
      if (p.hit) continue;
      execute_ms[p.method].push_back(p.wall_ms);
      filter.push_back(p.filter_ms);
      splat.push_back(p.splat_ms);
      sweep.push_back(p.sweep_ms);
      reduce.push_back(p.reduce_ms);
      refine.push_back(p.refine_ms);
      if (p.method == "accurate") {
        pip += p.pip_tests;
        scanned += p.points_scanned;
      }
      if (p.method == "raster" || p.method == "accurate") {
        pixels += p.pixels;
        boundary += p.boundary;
        simd += p.simd;
      }
    }
    std::size_t raster_queries = 0;
    for (const char* m : {"raster", "accurate"}) {
      raster_queries += execute_ms.count(m) ? execute_ms[m].size() : 0;
    }
    metrics.Set("client.connect_ms", Quantile(all.connect_ms, 0.5), "ms");
    metrics.Set("client.ingest_late_ms", Quantile(ingest_result.late_ms, 0.5),
                "ms");
    metrics.Set("net.http_parse_us", Quantile(replay.http_parse_us, 0.5),
                "us");
    metrics.Set("server.api_parse_us", Quantile(replay.api_parse_us, 0.5),
                "us");
    metrics.Set("server.render_us", Quantile(replay.render_us, 0.5), "us");
    metrics.Set("server.response_bytes", Quantile(all.response_bytes, 0.5),
                "bytes");
    metrics.Set("server.queue_wait_ms", Mean(queue_wait), "ms");
    metrics.Set("server.ingest_parse_us",
                Quantile(replay.ingest_parse_us, 0.5), "us");
    metrics.Set("urbane.execute_sql_ms", Quantile(replay.execute_sql_ms, 0.5),
                "ms");
    metrics.Set("urbane.execute_sql_self_ms",
                Quantile(replay.execute_sql_self_ms, 0.5), "ms");
    metrics.Set("core.sql_parse_us", Quantile(replay.sql_parse_us, 0.5),
                "us");
    metrics.Set("core.selectivity_us", Quantile(replay.selectivity_us, 0.5),
                "us");
    for (const char* m : {"raster", "accurate", "index"}) {
      metrics.Set(std::string("core.execute_ms.") + m,
                  execute_ms.count(m) ? Mean(execute_ms[m]) : 0.0, "ms");
    }
    metrics.Set("core.filter_ms", Mean(filter), "ms");
    metrics.Set("core.splat_ms", Mean(splat), "ms");
    metrics.Set("core.sweep_ms", Mean(sweep), "ms");
    metrics.Set("core.refine_ms", Mean(refine), "ms");
    metrics.Set("core.reduce_ms", Mean(reduce), "ms");
    metrics.Set("core.pip_per_point", Ratio(pip, scanned), "ratio");
    metrics.Set("core.cache_hit_ratio", Mean(hits), "ratio");
    metrics.Set("core.offcpu_ms", Mean(offcpu), "ms");
    metrics.Set("raster.pixels_touched",
                Ratio(pixels, static_cast<double>(raster_queries)), "count");
    metrics.Set("raster.boundary_pixel_ratio", Ratio(boundary, pixels),
                "ratio");
    metrics.Set("raster.simd_fragment_ratio", Ratio(simd, pixels), "ratio");
    metrics.Set("store.open_ms", Quantile(open_ms, 0.5), "ms");
    metrics.Set("store.blocks_pruned_ratio",
                Ratio(replay.blocks_pruned, replay.blocks_total), "ratio");
    metrics.Set("shard.merge_us", Quantile(replay.merge_us, 0.5), "us");
    metrics.Set("ingest.components", Mean(components), "count");
    metrics.Set("ingest.live_execute_ms", Quantile(replay.live_execute_ms, 0.5),
                "ms");
    metrics.Set("ingest.append_ms", Quantile(ingest_result.server_ms, 0.5),
                "ms");
    metrics.Set("ingest.batch_tail_ms",
                Quantile(ingest_result.latencies_ms,
                         SupportedTailQuantile(n_ingest, 0.99)),
                "ms");
    metrics.Set("ingest.compact_ms", Quantile(ingest_result.compact_ms, 0.5),
                "ms");
    metrics.Set("ingest.flushes", settled->flushes, "count");
    metrics.Set("ingest.rejected", settled->rejected, "count");
    metrics.Set("ingest.write_amp", settled->write_amp, "ratio");
    const double untraced_p50 = Quantile(all.untraced_ms, 0.5);
    metrics.Set("obs.trace_overhead_pct",
                100.0 * Ratio(Quantile(all.traced_ms, 0.5) - untraced_p50,
                              untraced_p50),
                "%");
    metrics.Set("data.generate_s", Quantile(generate_s, 0.5), "s");
    metrics.Set("core.first_query_ms", Quantile(first_query_ms, 0.5), "ms");
    metrics.Set("obs.trace_join_ratio",
                Ratio(joined, static_cast<double>(all.profiles.size())),
                "ratio");
  }

  // The detailed report: stamp, per-phase operation counts, checks.
  if (!options.report_path.empty()) {
    JsonValue::Object report;
    report.emplace_back("schema", JsonValue("urbench.report.v1"));
    report.emplace_back(
        "stamp", EnvironmentStamp(WorkloadName(options.workload),
                                  options.seed, options.scale,
                                  options.seconds, options.trace));
    JsonValue::Object phases;
    phases.emplace_back("query", all.counts.ToJson());
    phases.emplace_back(live ? "ingest" : "ingest_probe",
                        ingest_result.counts.ToJson());
    if (live) phases.emplace_back("final_check", final_check.ToJson());
    report.emplace_back("phases", JsonValue(std::move(phases)));
    JsonValue::Object detail;
    detail.emplace_back("query_samples", JsonValue(static_cast<double>(n)));
    detail.emplace_back("host_steal_pct", JsonValue(steal_pct));
    detail.emplace_back("ingest_samples",
                        JsonValue(static_cast<double>(n_ingest)));
    detail.emplace_back(
        "error_pct",
        JsonValue(100.0 * Ratio(static_cast<double>(total.failed()),
                                static_cast<double>(total.attempted))));
    const auto tail = [](const std::vector<double>& values) {
      JsonValue::Object q;
      const std::pair<const char*, double> points[] = {
          {"p50", 0.5},   {"p90", 0.9},     {"p95", 0.95},
          {"p99", 0.99},  {"p99.9", 0.999}, {"max", 1.0}};
      for (const auto& [label, p] : points) {
        q.emplace_back(label, JsonValue(Quantile(values, p)));
      }
      return JsonValue(std::move(q));
    };
    detail.emplace_back("query_ms_quantiles", tail(all.latencies_ms));
    detail.emplace_back("ingest_ms_quantiles",
                        tail(ingest_result.latencies_ms));
    detail.emplace_back("ingest_late_p50_ms",
                        JsonValue(Quantile(ingest_result.late_ms, 0.5)));
    detail.emplace_back("ingest_late_max_ms",
                        JsonValue(Quantile(ingest_result.late_ms, 1.0)));
    detail.emplace_back("acked_rows", JsonValue(acked_rows));
    if (live) detail.emplace_back("rows_outside_regions", JsonValue(rows_outside));
    JsonValue::Array setups;
    for (const double s : setup_s) setups.emplace_back(s);
    detail.emplace_back("setup_s_each", JsonValue(std::move(setups)));
    report.emplace_back("detail", JsonValue(std::move(detail)));
    JsonValue::Object checks;
    checks.emplace_back("checked",
                        JsonValue(static_cast<double>(check.checked)));
    checks.emplace_back("wrong", JsonValue(static_cast<double>(check.wrong)));
    JsonValue::Array messages;
    for (const std::string& m : check.messages) messages.emplace_back(m);
    checks.emplace_back("mismatches", JsonValue(std::move(messages)));
    report.emplace_back("checks", JsonValue(std::move(checks)));
    report.emplace_back("metrics", metrics.ToJson());
    std::ofstream(options.report_path)
        << JsonValue(std::move(report)).Dump(2) << "\n";
    if (options.trace) {
      (void)all.spans.WriteJsonLines(options.report_path + ".spans.jsonl");
    }
  }
  for (const std::string& m : check.messages) {
    std::fprintf(stderr, "answer check failed: %s\n", m.c_str());
  }

  world.reset();
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::printf("%s\n", ResultLine(correct, total, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace urbench

int main(int argc, char** argv) {
  urbench::Options options;
  if (!urbench::ParseArgs(argc, argv, &options)) return urbench::Usage();
  return urbench::Run(options);
}
