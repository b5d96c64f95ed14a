// IngestPath: the `failmine_cli summary` path, from the CSV files on disk
// (page cache warm) to the E01 result, three ways per repetition — row
// backend at nproc ingest threads, row backend at one thread (the serial
// CsvReader path, the single-threaded baseline) and columnar backend at
// nproc threads. CSV scan, field parse and record or column build are
// nearly all of the work; the analysis is almost none.
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "columnar/engine.hpp"
#include "columnar/load.hpp"
#include "ingest/chunk.hpp"
#include "ingest/loader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "paths.hpp"
#include "util/csv.hpp"
#include "util/time.hpp"

namespace perfbench {
namespace {

using namespace failmine;

std::uint64_t rejected_lines() {
  return obs::metrics().counter_value("parse.lines_rejected");
}

/// `summary` on the row backend: the four read_csv calls of
/// sim::load_dataset, in its order, then the analyzer's E01. The logs are
/// freed inside the call, as the CLI frees them before it exits.
core::DatasetSummary summary_row(const std::string& dir, unsigned threads) {
  const auto machine = topology::MachineConfig::mira();
  ingest::LoadOptions lo;
  lo.threads = threads;
  const bool serial = threads == 1;
  sim::SimResult d;
  {
    auto s = spans().scope(serial ? "raslog.read_csv_1t" : "raslog.read_csv");
    d.ras_log = raslog::RasLog::read_csv(dir + "/ras.csv", machine, lo);
  }
  {
    auto s = spans().scope(serial ? "joblog.read_csv_1t" : "joblog.read_csv");
    d.job_log = joblog::JobLog::read_csv(dir + "/jobs.csv", lo);
  }
  {
    auto s = spans().scope(serial ? "tasklog.read_csv_1t" : "tasklog.read_csv");
    d.task_log = tasklog::TaskLog::read_csv(dir + "/tasks.csv", lo);
  }
  {
    auto s = spans().scope(serial ? "iolog.read_csv_1t" : "iolog.read_csv");
    d.io_log = iolog::IoLog::read_csv(dir + "/io.csv", lo);
  }
  std::optional<core::JointAnalyzer> analyzer;
  {
    auto s = spans().scope("core.analyzer_build");
    analyzer.emplace(d.job_log, d.task_log, d.ras_log, d.io_log, machine);
  }
  auto s = spans().scope("core.dataset_summary");
  return analyzer->dataset_summary();
}

/// `summary --columnar`: the four table loads of columnar::load_dataset,
/// then the columnar QueryEngine's E01.
core::DatasetSummary summary_columnar(const std::string& dir,
                                      unsigned threads) {
  const auto machine = topology::MachineConfig::mira();
  ingest::LoadOptions lo;
  lo.threads = threads;
  columnar::ColumnarDataset ds;
  {
    auto s = spans().scope("columnar.load_ras");
    ds.ras = columnar::load_ras_table(dir + "/ras.csv", machine, lo);
  }
  {
    auto s = spans().scope("columnar.load_job");
    ds.jobs = columnar::load_job_table(dir + "/jobs.csv", lo);
  }
  {
    auto s = spans().scope("columnar.load_task");
    ds.tasks = columnar::load_task_table(dir + "/tasks.csv", lo);
  }
  {
    auto s = spans().scope("columnar.load_io");
    ds.io = columnar::load_io_table(dir + "/io.csv", lo);
  }
  auto s = spans().scope("columnar.dataset_summary");
  return columnar::QueryEngine(ds, machine).dataset_summary();
}

/// Single-threaded costs per RAS row of the parsers under the loaders,
/// on the workload's own ras.csv.
void row_parser_layers(const Options& options, Report& report) {
  const auto machine = topology::MachineConfig::mira();
  const std::string text = read_file(options.data_dir + "/ras.csv");
  const std::string_view body =
      std::string_view(text).substr(text.find('\n') + 1);
  std::vector<std::string_view> records;
  {
    ingest::CsvCursor cursor(body);
    std::string_view record;
    while (cursor.next(record)) records.push_back(record);
  }
  const std::size_t rows = records.size();
  util::FieldVec fields;
  std::vector<std::string> stamps, locations;
  stamps.reserve(rows);
  locations.reserve(rows);
  for (const auto r : records) {
    util::split_csv_fields(r, fields);
    stamps.emplace_back(fields[1]);
    locations.emplace_back(fields[6]);
  }

  std::size_t sink = 0;
  const double split_ns = 1e9 * median_seconds_per(rows, [&] {
    for (const auto r : records) {
      util::split_csv_fields(r, fields);
      sink += fields.size();
    }
  });
  const double stamp_ns = 1e9 * median_seconds_per(rows, [&] {
    for (const auto& t : stamps)
      sink += static_cast<std::size_t>(util::parse_timestamp(t));
  });
  const double location_ns = 1e9 * median_seconds_per(rows, [&] {
    for (const auto& l : locations)
      sink += topology::Location::parse(l, machine).rack_row();
  });
  raslog::RasEvent event;
  const double split_parse_ns = 1e9 * median_seconds_per(rows, [&] {
    for (const auto r : records) {
      util::split_csv_fields(r, fields);
      raslog::parse_csv_row(fields, machine, event);
      sink += event.record_id;
    }
  });
  report.metric("util.split_csv_fields_ns", split_ns, "ns");
  report.metric("util.parse_timestamp_ns", stamp_ns, "ns");
  report.metric("topology.location_parse_ns", location_ns, "ns");
  // parse_csv_row takes split fields, so its cost is split+parse - split.
  report.metric("raslog.parse_csv_row_ns", split_parse_ns - split_ns, "ns");
  const std::unordered_set<std::string> distinct(locations.begin(),
                                                 locations.end());
  report.metric("raslog.distinct_locations",
                static_cast<double>(distinct.size()), "count");

  // finalize() on events that are already in order (the loaders' case).
  const auto ras = raslog::RasLog::read_csv(options.data_dir + "/ras.csv",
                                            machine);
  std::vector<raslog::RasEvent> events;
  std::optional<raslog::RasLog> sorted;  // freed untimed
  const double finalize_s = median_seconds_per(
      1,
      [&] {
        sorted.reset();
        events = ras.events();
      },
      [&] { sorted.emplace(std::move(events)); });  // the constructor finalizes
  report.op(sink != 0 && sorted->size() == ras.size(),
            "row parser layers produced no output");
  report.metric("raslog.finalize_ms", finalize_s * 1e3, "ms");
}

/// Scan + chunk + split throughput of the ingest engine: load_csv_fold
/// over ras.csv with a row function that only counts.
void scan_layer(const Options& options, Report& report) {
  const std::string path = options.data_dir + "/ras.csv";
  ingest::LoadOptions lo;
  lo.threads = options.threads;
  const double mb = static_cast<double>(read_file(path).size()) / 1e6;
  std::vector<double> seconds;
  std::vector<double> imbalance;
  double chunks = 0;
  for (int i = 0; i < 5; ++i) {
    obs::tracer().clear();
    const auto t0 = Clock::now();
    const auto counts = ingest::load_csv_fold<std::size_t>(
        path, raslog::ras_csv_header(), "raslog", "RAS log",
        "perfbench.scan.rows", [] { return std::size_t{0}; },
        [](std::size_t& n, const util::FieldVec&) { ++n; }, lo);
    seconds.push_back(seconds_since(t0));
    std::vector<double> chunk_us;
    for (const auto& span : obs::tracer().records())
      if (span.name == "ingest.chunk")
        chunk_us.push_back(static_cast<double>(span.duration_us));
    chunks = static_cast<double>(chunk_us.size());
    double sum = 0, max = 0;
    for (double d : chunk_us) sum += d, max = std::max(max, d);
    if (sum > 0) imbalance.push_back(max * chunks / sum);
    report.op(counts.size() == chunk_us.size(), "scan chunk count");
  }
  report.metric("ingest.scan_mb_per_s", mb / median(seconds), "MB/s");
  report.metric("ingest.chunk_imbalance", median(imbalance), "ratio");
  report.metric("ingest.chunks", chunks, "count");
}

}  // namespace

IngestPath::IngestPath(const Options& options, const Inputs& in)
    : options_(options), in_(in) {}

void IngestPath::round(const Rep& rep, Report& report) {
  const std::string& dir = options_.data_dir;
  const DatasetSizes& sizes = in_.sizes;
  // One summary is one operation: it must load without error, reject no
  // line, count exactly the generated rows and — for the baseline and the
  // columnar backend — equal the row backend's summary bit for bit.
  auto timed = [&](const char* what, auto&& run, Samples& out,
                   const core::DatasetSummary* reference,
                   bool probed) {
    core::DatasetSummary s;
    const std::uint64_t rejected = rejected_lines();
    obs::tracer().clear();
    try {
      std::optional<SpeedProbe> probe;
      if (probed) probe.emplace();
      const Stopwatch watch;
      s = run();
      const double wall = watch.wall_s(), cpu = watch.cpu_s();
      if (probe) probe->finish();
      if (!rep.warmup) {
        if (probe) out.add(wall, cpu, *probe);
        else out.add(wall, cpu);
      }
    } catch (const std::exception& e) {
      report.op(false, std::string(what) + " threw: " + e.what());
      return s;
    }
    const bool counts = s.jobs == sizes.jobs && s.tasks == sizes.tasks &&
                        s.ras_events == sizes.ras && s.io_records == sizes.io;
    report.op(counts && rejected_lines() == rejected &&
                  (reference == nullptr || identical(s, *reference)),
              std::string(what) + ": counts, rejects or parity differ");
    return s;
  };

  const auto lines0 = obs::metrics().counter_value("parse.lines_total");
  const auto row = timed(
      "summary row", [&] { return summary_row(dir, options_.threads); },
      row_, nullptr, /*probed=*/false);
  lines_total_ = static_cast<double>(
      obs::metrics().counter_value("parse.lines_total") - lines0);
  {
    const PinnedToCpu pin(rep.index);  // the serial reader starts no thread
    timed("summary row 1 thread", [&] { return summary_row(dir, 1); },
          row_1t_, &row, /*probed=*/true);
  }
  const auto bytes0 = obs::metrics().counter_value("columnar.bytes");
  timed("summary columnar",
        [&] { return summary_columnar(dir, options_.threads); }, columnar_,
        &row, /*probed=*/false);
  columnar_bytes_ = static_cast<double>(
      obs::metrics().counter_value("columnar.bytes") - bytes0);
}

void IngestPath::metrics(Report& report) const {
  report.metric("summary_cpu_s", median(row_.cpu_s), "s");
  report.metric("summary_1t_nominal_cpu_s", median(row_1t_.nominal_cpu_s()),
                "s");
  report.metric("summary_columnar_cpu_s", median(columnar_.cpu_s), "s");
}

void IngestPath::layers(Report& report) {
  report.metric("wall.summary_s", median(row_.wall_s), "s");
  report.metric("wall.summary_1t_s", median(row_1t_.wall_s), "s");
  report.metric("cpu.summary_1t_s", median(row_1t_.cpu_s), "s");
  report.metric("wall.summary_columnar_s", median(columnar_.wall_s), "s");
  scan_layer(options_, report);
  row_parser_layers(options_, report);
  report.metric("raslog.read_csv_s", span_us("raslog.read_csv") / 1e6, "s");
  report.metric("raslog.read_csv_1t_s", span_us("raslog.read_csv_1t") / 1e6,
                "s");
  report.metric("joblog.read_csv_s", span_us("joblog.read_csv") / 1e6, "s");
  report.metric("tasklog.read_csv_s", span_us("tasklog.read_csv") / 1e6, "s");
  report.metric("iolog.read_csv_s", span_us("iolog.read_csv") / 1e6, "s");
  report.metric("parse.lines_total", lines_total_, "count");
  report.metric("parse.lines_rejected", static_cast<double>(rejected_lines()),
                "count");
  report.metric("columnar.load_ras_s", span_us("columnar.load_ras") / 1e6, "s");
  report.metric("columnar.load_job_s", span_us("columnar.load_job") / 1e6, "s");
  report.metric("columnar.load_task_s", span_us("columnar.load_task") / 1e6,
                "s");
  report.metric("columnar.load_io_s", span_us("columnar.load_io") / 1e6, "s");
  report.metric("columnar.bytes", columnar_bytes_, "bytes");
  report.metric("core.analyzer_build_ms", span_ms("core.analyzer_build"), "ms");
  report.metric("core.dataset_summary_ms", span_ms("core.dataset_summary"),
                "ms");
}

}  // namespace perfbench
