// StreamPath and LivePath: `failmine_cli stream` replays, as a closed
// loop with one producer pushing 1024-record batches under the blocking
// policy (as the CLI does), timed from the first push until finish()
// returns, on the workload's replay (in order with lateness 0, or
// shuffled by up to 300 s with lateness 600 s).
//
// StreamPath: no router operator, at 2 shards (producer, router and two
// shards are 4 busy threads) and at 1 shard, the baseline. Shard
// operators and record copies do most of the work.
//
// LivePath: the operator's set-up `stream --predict --tsdb --serve` with
// the default alert rules, at 1 shard, while an open-loop scraper in this
// process sends 20 requests/s cycling /metrics, /snapshot and /query
// (NOTES.md gives the reason for the rate).
// The predict router operator and the obs serve/tsdb/alerts layers do
// work that StreamPath skips.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/serve.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "paths.hpp"
#include "predict/operator.hpp"
#include "stream/heavy_hitters.hpp"
#include "stream/operators.hpp"
#include "stream/pipeline.hpp"
#include "stream/quantile_sketch.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/watermark.hpp"

namespace perfbench {
namespace {

using namespace failmine;
using stream::StreamRecord;

constexpr std::size_t kPushBatch = 1024;  // as the CLI pushes
constexpr double kScrapesPerSecond = 20.0;

bool close_ulps(double a, double b) {
  return std::fabs(a - b) <=
         4 * std::numeric_limits<double>::epsilon() *
             std::max(std::fabs(a), std::fabs(b));
}

/// Zero drops, zero late records, everything processed, and exit-class
/// counts and interruption MTTI equal to the batch analyzer's.
bool matches(const stream::StreamSnapshot& s, const StreamReference& ref,
             std::size_t records) {
  if (s.records_dropped != 0 || s.records_late != 0 ||
      s.records_in != records || s.records_processed != records)
    return false;
  const auto& e = s.exit_breakdown;
  if (e.total_jobs != ref.exits.total_jobs ||
      e.total_failures != ref.exits.total_failures ||
      e.rows.size() != ref.exits.rows.size())
    return false;
  for (std::size_t i = 0; i < e.rows.size(); ++i)
    if (e.rows[i].exit_class != ref.exits.rows[i].exit_class ||
        e.rows[i].jobs != ref.exits.rows[i].jobs)
      return false;
  return s.fatal_input_events == ref.mtti.filter.input_events &&
         s.interruptions == ref.mtti.filter.clusters.size() &&
         close_ulps(s.mtti.mtti_days, ref.mtti.mtti.mtti_days);
}

struct ReplayRun {
  Clock::time_point start;
  Clock::time_point end;
  double seconds = 0;
  double cpu_seconds = 0;  ///< of every thread of the process
  double finish_ms = 0;
  std::vector<double> push_us;  ///< time each push_batch blocked
};

/// The CLI's feed loop; `records` is consumed.
ReplayRun replay(std::vector<StreamRecord> records,
                 stream::StreamPipeline& pipeline) {
  ReplayRun run;
  auto span = spans().scope("stream.replay");
  std::vector<StreamRecord> chunk;
  const double cpu0 = process_cpu_seconds();
  run.start = Clock::now();
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min(kPushBatch, records.size() - i);
    chunk.assign(std::make_move_iterator(records.begin() + i),
                 std::make_move_iterator(records.begin() + i + n));
    const auto tp = Clock::now();
    pipeline.push_batch(std::move(chunk));
    run.push_us.push_back(seconds_since(tp) * 1e6);
    i += n;
  }
  const auto tf = Clock::now();
  {
    auto s = spans().scope("stream.finish");
    pipeline.finish();
  }
  run.end = Clock::now();
  run.finish_ms =
      std::chrono::duration<double, std::milli>(run.end - tf).count();
  run.seconds = std::chrono::duration<double>(run.end - run.start).count();
  run.cpu_seconds = process_cpu_seconds() - cpu0;
  return run;
}

obs::HistogramSample histogram(const obs::MetricsSample& sample,
                               std::string_view name) {
  for (const auto& [n, h] : sample.histograms)
    if (n == name) return h;
  return {};
}

/// Histogram deltas over the replays of one configuration, merged across
/// same-shaped histograms (the per-shard apply_us).
class HistogramDelta {
 public:
  void add(const obs::HistogramSample& before,
           const obs::HistogramSample& after) {
    if (after.buckets.empty()) return;
    if (sum_.buckets.empty()) {
      sum_.upper_bounds = after.upper_bounds;
      sum_.buckets.assign(after.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < after.buckets.size(); ++i)
      sum_.buckets[i] += after.buckets[i] -
                         (i < before.buckets.size() ? before.buckets[i] : 0);
    sum_.count += after.count - before.count;
  }
  double quantile(double q) const {
    return obs::histogram_quantile(sum_, q);
  }

 private:
  obs::HistogramSample sum_;
};

}  // namespace

struct ReplayLayers {
  std::vector<double> push_us;
  std::vector<double> finish_ms;
  HistogramDelta router_batch_us;
  HistogramDelta shard_apply_us;
  HistogramDelta causal_e2e_us;
  std::uint64_t late = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stalls = 0;

  /// Replays `records` through `pipeline`, checks the snapshot and
  /// accumulates the layer numbers.
  ReplayRun run(std::vector<StreamRecord> records,
                stream::StreamPipeline& pipeline,
                const StreamReference& reference, Report& report) {
    const std::size_t n = records.size();
    const std::size_t shards = pipeline.config().shard_count;
    const auto before = obs::metrics().sample();
    const auto stalls0 = obs::metrics().counter_value("stream.shard_stalls");
    ReplayRun r;
    try {
      r = replay(std::move(records), pipeline);
    } catch (const std::exception& e) {
      report.op(false, std::string("replay threw: ") + e.what());
      return r;
    }
    const auto after = obs::metrics().sample();
    const auto snap = pipeline.snapshot();
    report.op(matches(snap, reference, n),
              "stream snapshot differs from the batch analyzer");
    late += snap.records_late;
    dropped += snap.records_dropped;
    stalls += obs::metrics().counter_value("stream.shard_stalls") - stalls0;
    push_us.insert(push_us.end(), r.push_us.begin(), r.push_us.end());
    finish_ms.push_back(r.finish_ms);
    router_batch_us.add(histogram(before, "stream.router.batch_us"),
                        histogram(after, "stream.router.batch_us"));
    for (std::size_t i = 0; i < shards; ++i) {
      const std::string name = "stream.shard" + std::to_string(i) + ".apply_us";
      shard_apply_us.add(histogram(before, name), histogram(after, name));
    }
    causal_e2e_us.add(histogram(before, "causal.e2e_us"),
                      histogram(after, "causal.e2e_us"));
    return r;
  }

  /// Reports the layer numbers; `prefix` tells configurations apart.
  void print(Report& report, const std::string& prefix) const {
    const auto metric = [&](const char* name, double value, const char* unit) {
      report.metric(prefix + name, value, unit);
    };
    metric("stream.push_batch_p50_us", quantile(push_us, 0.5), "us");
    metric("stream.push_batch_p99_us", quantile(push_us, 0.99), "us");
    metric("stream.finish_ms", median(finish_ms), "ms");
    metric("stream.router.batch_us_p50", router_batch_us.quantile(0.5), "us");
    metric("stream.shard.apply_us_p50", shard_apply_us.quantile(0.5), "us");
    metric("stream.records_late", static_cast<double>(late), "count");
    metric("stream.records_dropped", static_cast<double>(dropped), "count");
    metric("stream.shard_stalls", static_cast<double>(stalls), "count");
    metric("causal.e2e_us_p50", causal_e2e_us.quantile(0.5), "us");
    metric("causal.e2e_us_p99", causal_e2e_us.quantile(0.99), "us");
  }
};

namespace {

stream::StreamConfig pipeline_config(std::size_t shards,
                                     std::int64_t lateness) {
  stream::StreamConfig config;
  config.machine = topology::MachineConfig::mira();
  config.shard_count = shards;
  config.max_lateness_seconds = lateness;
  return config;
}

/// Isolated per-record costs of the shard side, on the workload's replay.
void shard_layers(const std::vector<StreamRecord>& replay, Report& report) {
  const auto machine = topology::MachineConfig::mira();
  const stream::StreamConfig defaults;
  std::size_t sink = 0;
  std::vector<StreamRecord> records;
  const auto copy_replay = [&] { records = replay; };

  const double ring_s = median_seconds_per(replay.size(), copy_replay, [&] {
    stream::RingBuffer<StreamRecord> ring(defaults.queue_capacity,
                                          stream::BackpressurePolicy::kBlock);
    std::size_t popped = 0;
    std::thread consumer([&] {
      std::vector<StreamRecord> out;
      while (true) {
        out.clear();
        const std::size_t n = ring.pop_batch(out, defaults.dispatch_batch);
        if (n == 0) break;
        popped += n;
      }
    });
    std::vector<StreamRecord> chunk;
    for (std::size_t i = 0; i < records.size(); i += kPushBatch) {
      const std::size_t n = std::min(kPushBatch, records.size() - i);
      chunk.assign(std::make_move_iterator(records.begin() + i),
                   std::make_move_iterator(records.begin() + i + n));
      ring.push_batch(std::move(chunk));
    }
    ring.close();
    consumer.join();
    sink += popped;
  });
  report.metric("stream.ring_ns", ring_s * 1e9, "ns");
  const double record_copy_s = median_seconds_per(replay.size(), [&] {
    const std::vector<StreamRecord> copy = replay;
    sink += copy.size();
  });
  report.metric("stream.record_copy_ns", record_copy_s * 1e9, "ns");
  const double shard_apply_s = median_seconds_per(replay.size(), [&] {
    stream::ShardAggregates agg(machine, defaults.quantile_epsilon,
                                defaults.heavy_hitter_capacity);
    for (const auto& r : replay) agg.apply(r);
    sink += agg.records_by_source[0];
  });
  report.metric("stream.shard_apply_ns", shard_apply_s * 1e9, "ns");

  std::vector<std::uint64_t> boards;
  std::vector<double> runtimes;
  for (const auto& r : replay) {
    if (const auto* e = std::get_if<raslog::RasEvent>(&r.payload))
      boards.push_back(stream::board_key(e->location));
    else if (const auto* j = std::get_if<joblog::JobRecord>(&r.payload))
      runtimes.push_back(static_cast<double>(j->runtime_seconds()));
  }
  const double space_saving_add_s = median_seconds_per(boards.size(), [&] {
    stream::SpaceSavingSketch sketch(defaults.heavy_hitter_capacity);
    for (const auto key : boards) sketch.add(key);
    sink += sketch.size();
  });
  report.metric("stream.space_saving_add_ns", space_saving_add_s * 1e9, "ns");
  const double gk_insert_s = median_seconds_per(runtimes.size(), [&] {
    stream::GkQuantileSketch sketch(defaults.quantile_epsilon);
    for (const double v : runtimes) sketch.insert(v);
    sink += 1;
  });
  report.metric("stream.gk_insert_ns", gk_insert_s * 1e9, "ns");
  report.op(sink != 0, "stream layers produced no output");
}

/// Isolated per-record costs of the router side, on the workload's replay.
void router_layers(const std::vector<StreamRecord>& shuffled,
                   std::int64_t lateness, Report& report) {
  const core::FilterConfig filter;
  std::vector<StreamRecord> records, ordered;
  const auto prepare = [&] {
    records = shuffled;
    ordered.clear();
    ordered.reserve(records.size());
  };
  const double reorder_s = median_seconds_per(shuffled.size(), prepare, [&] {
    stream::WatermarkReorderer reorderer(lateness);
    const auto emit = [&](StreamRecord&& r) {
      ordered.push_back(std::move(r));
    };
    for (auto& r : records) reorderer.push(std::move(r), emit);
    reorderer.flush(emit);
  });
  report.metric("stream.reorder_ns", reorder_s * 1e9, "ns");
  std::vector<const raslog::RasEvent*> events;
  for (const auto& r : ordered)
    if (const auto* e = std::get_if<raslog::RasEvent>(&r.payload))
      events.push_back(e);
  std::uint64_t clusters = 0;
  const double interruptions_add_s = median_seconds_per(events.size(), [&] {
    stream::StreamingInterruptions interruptions(filter);
    for (const auto* e : events) interruptions.add(*e);
    clusters = interruptions.interruptions();
  });
  report.metric("stream.interruptions_add_ns", interruptions_add_s * 1e9, "ns");
  const double observe_s = median_seconds_per(ordered.size(), [&] {
    predict::PredictConfig pc;
    pc.filter = filter;
    predict::PredictOperator op(pc);
    for (const auto& r : ordered) op.observe(r);
    op.finish();
  });
  report.metric("predict.observe_ns", observe_s * 1e9, "ns");
  report.op(ordered.size() == shuffled.size() && clusters > 0,
            "reorderer lost records");
}

// ---- stream-live scraper -----------------------------------------------

/// Minimal JSON syntax check (RFC 8259 values; no semantic checks).
class JsonCheck {
 public:
  explicit JsonCheck(std::string_view s) : s_(s) {}
  bool valid() {
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t'))
      ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') ++i_;
      else if (static_cast<unsigned char>(c) < 0x20) return false;
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[i_]) !=
               std::string_view::npos)
      ++i_;
    if (i_ == start) return false;
    const std::string text(s_.substr(start, i_ - start));
    char* end = nullptr;
    std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        ++i_;
        if (eat('}')) return true;
        do {
          if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      case '[':
        ++i_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Prometheus text 0.0.4: every sample line is `name[{labels}] value`.
bool valid_prometheus(std::string_view body) {
  std::size_t samples = 0;
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    const std::string_view line = body.substr(0, nl);
    body = nl == std::string_view::npos ? std::string_view{}
                                        : body.substr(nl + 1);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos || sp == 0) return false;
    const std::string value(line.substr(sp + 1));
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || value.empty()) return false;
    ++samples;
  }
  return samples > 0;
}

struct Route {
  const char* path;
  const char* name;
  bool prometheus;
};
constexpr std::array<Route, 3> kRoutes = {{
    {"/metrics", "metrics", true},
    {"/snapshot", "snapshot", false},
    {"/query?expr=rate%28stream.records_in%5B10s%5D%29", "query", false},
}};

struct Scrape {
  Clock::time_point due;
  std::size_t route = 0;
  double latency_ms = 0;  ///< from when the request was due
  double late_ms = 0;     ///< how late the generator sent it
  bool ok = false;
};

/// Open-loop scraper: request k is due at start + k / rate, whatever
/// happened to request k-1.
class Scraper {
 public:
  explicit Scraper(std::uint16_t port)
      : port_(port), thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  /// Stops and joins; after this scrapes() is stable.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Scrape>& scrapes() const { return scrapes_; }
  /// CPU time the scraper thread used (client work, not the system's).
  double cpu_seconds_used() const { return cpu_s_; }

 private:
  void loop() {
    const auto start = Clock::now();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kScrapesPerSecond));
    for (std::size_t k = 0; !stop_.load(); ++k) {
      const auto due = start + static_cast<long>(k) * period;
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      Scrape s;
      s.due = due;
      s.route = k % kRoutes.size();
      s.late_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      try {
        const auto resp = obs::http_get(port_, kRoutes[s.route].path, 5);
        s.ok = resp.status >= 200 && resp.status < 300 &&
               (kRoutes[s.route].prometheus ? valid_prometheus(resp.body)
                                            : JsonCheck(resp.body).valid());
      } catch (const std::exception&) {
        s.ok = false;
      }
      s.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      scrapes_.push_back(s);
    }
    cpu_s_ = thread_cpu_seconds();
  }

  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<Scrape> scrapes_;  ///< written by the scraper thread only
  double cpu_s_ = 0;             ///< likewise
  std::thread thread_;
};

std::unique_ptr<stream::StreamPipeline> live_pipeline(std::int64_t lateness) {
  auto config = pipeline_config(1, lateness);
  predict::PredictConfig pc;
  pc.machine = config.machine;
  pc.filter = config.filter;
  config.router_operator = std::make_shared<predict::PredictOperator>(pc);
  return std::make_unique<stream::StreamPipeline>(config);
}

/// `stream --tsdb` with the default alert rules, started as the CLI
/// starts them: the tsdb scraper (1 s interval) first, then the alert
/// engine (500 ms poll) on its history. Both stop on destruction, the
/// tsdb with a final scrape, so they run only while the live path does.
class LiveServices {
 public:
  LiveServices() {
    obs::tsdb().start(1000);
    obs::alerts().set_history(&obs::tsdb());
    obs::alerts().set_rules(obs::default_alert_rules());
    obs::alerts().start(/*poll_ms=*/500);
  }
  ~LiveServices() {
    obs::tsdb().stop();
    obs::alerts().stop();
  }
  LiveServices(const LiveServices&) = delete;
  LiveServices& operator=(const LiveServices&) = delete;
};

}  // namespace

StreamPath::StreamPath(const Options& options, const Inputs& in)
    : options_(options),
      in_(in),
      two_shards_(std::make_unique<ReplayLayers>()),
      one_shard_(std::make_unique<ReplayLayers>()) {}

StreamPath::~StreamPath() = default;

void StreamPath::round(const Rep& rep, Report& report) {
  obs::tracer().clear();
  ReplayRun r;
  {
    stream::StreamPipeline pipeline(pipeline_config(2, in_.lateness_seconds));
    r = two_shards_->run(in_.replay, pipeline, in_.stream_reference, report);
  }
  if (!rep.warmup) two_.add(r.seconds, r.cpu_seconds);
  stream::StreamPipeline pipeline(pipeline_config(1, in_.lateness_seconds));
  r = one_shard_->run(in_.replay, pipeline, in_.stream_reference, report);
  if (!rep.warmup) one_.add(r.seconds, r.cpu_seconds);
}

void StreamPath::metrics(Report& report) const {
  const auto n = static_cast<double>(in_.replay.size());
  report.metric("stream_cpu_ns_per_record", median(two_.cpu_s) * 1e9 / n,
                "ns");
  report.metric("stream_1shard_cpu_ns_per_record",
                median(one_.cpu_s) * 1e9 / n, "ns");
}

void StreamPath::layers(Report& report) {
  const auto n = static_cast<double>(in_.replay.size());
  report.metric("stream.records_per_s", n / median(two_.wall_s), "1/s");
  report.metric("stream.1shard_records_per_s", n / median(one_.wall_s),
                "1/s");
  two_shards_->print(report, "");
  shard_layers(in_.replay, report);
}

LivePath::LivePath(const Options& options, const Inputs& in)
    : options_(options),
      in_(in),
      replays_(std::make_unique<ReplayLayers>()),
      route_ms_(kRoutes.size()) {}

LivePath::~LivePath() = default;

void LivePath::round(const Rep& rep, Report& report) {
  obs::tracer().clear();
  // Like one `failmine_cli stream` command, a round starts the services,
  // the server and a fresh pipeline, and stops them when the replay ends,
  // so none of them runs while the other paths are timed.
  pipeline_ = live_pipeline(in_.lateness_seconds);
  stream::StreamPipeline& pipeline = *pipeline_;
  const LiveServices services;
  obs::TelemetryServer server;
  server.set_snapshot_handler([&] { return pipeline.snapshot().to_json(); });
  server.set_predict_handler(
      [&] { return pipeline.operator_snapshot_json() + "\n"; });
  server.set_health_handler([&] { return pipeline.healthy(); });
  server.start();
  Scraper scraper(server.port());
  const ReplayRun r =
      replays_->run(in_.replay, pipeline, in_.stream_reference, report);
  scraper.stop();
  // Every scrape is checked; latency counts the scrapes due while the
  // replay ran, not the last few landing after it finished.
  for (const auto& s : scraper.scrapes()) {
    report.op(s.ok, std::string("scrape of ") + kRoutes[s.route].path +
                        " failed or returned an unparseable body");
    if (rep.warmup || s.due < r.start || s.due >= r.end) continue;
    scrape_ms_.push_back(s.latency_ms);
    late_ms_.push_back(s.late_ms);
    route_ms_[s.route].push_back(s.latency_ms);
  }
  if (!rep.warmup)
    timing_.add(r.seconds, r.cpu_seconds - scraper.cpu_seconds_used());
}

void LivePath::metrics(Report& report) const {
  report.config("scrapes_timed", static_cast<double>(scrape_ms_.size()));
  const auto n = static_cast<double>(in_.replay.size());
  report.metric("live_cpu_ns_per_record",
                median(timing_.cpu_s) * 1e9 / n, "ns");
}

void LivePath::layers(Report& report) {
  report.config("scrapes_timed", static_cast<double>(scrape_ms_.size()));
  report.metric("live.records_per_s",
                static_cast<double>(in_.replay.size()) /
                    median(timing_.wall_s),
                "1/s");
  report.metric("scrape.p50_ms", quantile(scrape_ms_, 0.5), "ms");
  report.metric("scrape.generator_late_ms", quantile(late_ms_, 0.99), "ms");
  // p90 moves with how busy the host's CPUs are far more than with the
  // code (NOTES.md), so it is reported here, without a bound.
  report.metric("scrape.p90_ms", quantile(scrape_ms_, 0.9), "ms");
  for (std::size_t r = 0; r < kRoutes.size(); ++r)
    report.metric(std::string("scrape.") + kRoutes[r].name + "_p50_ms",
                  quantile(route_ms_[r], 0.5), "ms");
  replays_->print(report, "live.");

  // The handlers' work, per call, on the last replay's pipeline and the
  // history the tsdb stored over the run.
  std::size_t sink = 0;
  const double render_prometheus_s = median_seconds_per(5, [&] {
    for (int i = 0; i < 5; ++i)
      sink += obs::render_prometheus(obs::metrics()).size();
  });
  report.metric("obs.render_prometheus_ms", render_prometheus_s * 1e3, "ms");
  const double snapshot_us_s = median_seconds_per(20, [&] {
    for (int i = 0; i < 20; ++i) sink += pipeline_->snapshot().records_in;
  });
  report.metric("obs.snapshot_us", snapshot_us_s * 1e6, "us");
  const auto query = obs::parse_tsdb_query("rate(stream.records_in[10s])");
  const std::int64_t latest = obs::tsdb().latest_ms();
  const double tsdb_eval_us_s = median_seconds_per(20, [&] {
    for (int i = 0; i < 20; ++i)
      sink += obs::eval_tsdb_query(obs::tsdb(), query, latest, latest, 1000)
                  .series.size();
  });
  report.metric("obs.tsdb_eval_us", tsdb_eval_us_s * 1e6, "us");
  report.op(sink != 0, "obs layers produced no output");
  const auto stats = obs::tsdb().stats();
  report.metric("obs.tsdb_bytes_per_sample",
                stats.samples == 0
                    ? 0.0
                    : static_cast<double>(stats.raw_bytes_written) /
                          static_cast<double>(stats.samples),
                "bytes");
  router_layers(in_.replay, in_.lateness_seconds, report);
}

}  // namespace perfbench
