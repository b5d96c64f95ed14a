// perfbench/harness/paths.hpp
//
// The four user paths every run times, one class each. A run builds the
// shared Inputs in set-up, then calls round() on every path once per
// repetition, so all paths are measured under the same host conditions;
// metrics() reports a path's end-to-end numbers and layers() (traced run
// only) times each layer under it on its own.
//
//   IngestPath   `failmine_cli summary`: CSV on disk -> E01, row backend
//                at nproc and at 1 ingest thread, columnar at nproc.
//   AnalyzePath  `failmine_cli report`, then the five-query mix both
//                QueryEngine backends implement, over data loaded in
//                set-up.
//   StreamPath   `failmine_cli stream` replay, closed loop, no router
//                operator, at 2 shards and at 1 shard.
//   LivePath     `stream --predict --tsdb --serve` with the default alert
//                rules at 1 shard, under an open-loop scraper.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/table.hpp"
#include "common.hpp"
#include "core/joint_analyzer.hpp"
#include "core/mtti.hpp"
#include "core/report.hpp"
#include "sim/simulator.hpp"
#include "stream/pipeline.hpp"
#include "stream/record.hpp"

namespace perfbench {

namespace columnar = failmine::columnar;
namespace core = failmine::core;
namespace sim = failmine::sim;
namespace stream = failmine::stream;

/// What the batch analyzer says about the simulated trace; every stream
/// replay must agree with it.
struct StreamReference {
  core::ExitBreakdown exits;
  core::FilteredMtti mtti;
};

/// Everything set-up builds from the seed.
struct Inputs {
  DatasetSizes sizes;                  ///< rows of the CSV files written
  sim::SimResult rows;                 ///< CSV loaded by the row backend
  columnar::ColumnarDataset columns;   ///< CSV loaded by the columnar one
  std::vector<stream::StreamRecord> replay;
  std::int64_t lateness_seconds = 0;   ///< 2 x the replay's shuffle
  StreamReference stream_reference;
  /// The report over the data taken through the columnar loader and
  /// to_records() instead: an independent path to the same takeaways.
  std::vector<core::Takeaway> report_reference;
};

/// Set-up, timed as setup_s: simulate the trace for the options' scale
/// and seed, write it as the four CSV files the CLI reads under
/// options.data_dir, load them into both backends and build the replay
/// (shuffled by up to `shuffle_seconds` when non-zero). Returns the
/// simulated trace for add_references().
sim::SimResult build_inputs(const Options& options,
                            std::int64_t shuffle_seconds, Inputs& in);

/// Checker work after set-up, not timed: the batch analyzer's view of
/// `trace` for the stream checks, and the report reference.
void add_references(const Options& options, const sim::SimResult& trace,
                    Inputs& in);

/// Replaces the timestamp of the second RAS data row with text no
/// parser accepts (the corrupt-row test hook).
void corrupt_one_row(const Options& options);

/// Every field equal, the floating-point ones bit for bit: the row and
/// columnar backends' E01 parity contract.
bool identical(const core::DatasetSummary& a, const core::DatasetSummary& b);

/// `failmine_cli report`'s takeaways over `d` at trace scale `scale`.
std::vector<core::Takeaway> evaluate_report(const sim::SimResult& d,
                                            double scale);

class IngestPath {
 public:
  IngestPath(const Options& options, const Inputs& in);
  void round(const Rep& rep, Report& report);
  void metrics(Report& report) const;
  void layers(Report& report);

 private:
  const Options& options_;
  const Inputs& in_;
  Samples row_, row_1t_, columnar_;
  double lines_total_ = 0;
  double columnar_bytes_ = 0;
};

class AnalyzePath {
 public:
  AnalyzePath(const Options& options, const Inputs& in);
  ~AnalyzePath();
  void round(const Rep& rep, Report& report);
  void metrics(Report& report) const;
  void layers(Report& report);

 private:
  struct Engines;
  const Options& options_;
  const Inputs& in_;
  std::unique_ptr<Engines> engines_;
  Samples report_, row_, columnar_;
};

/// Per-layer numbers read from the replays of one configuration.
struct ReplayLayers;

class StreamPath {
 public:
  StreamPath(const Options& options, const Inputs& in);
  ~StreamPath();
  void round(const Rep& rep, Report& report);
  void metrics(Report& report) const;
  void layers(Report& report);

 private:
  const Options& options_;
  const Inputs& in_;
  std::unique_ptr<ReplayLayers> two_shards_;
  std::unique_ptr<ReplayLayers> one_shard_;
  Samples two_, one_;
};

class LivePath {
 public:
  LivePath(const Options& options, const Inputs& in);
  ~LivePath();
  LivePath(const LivePath&) = delete;
  LivePath& operator=(const LivePath&) = delete;
  void round(const Rep& rep, Report& report);
  void metrics(Report& report) const;
  void layers(Report& report);

 private:
  const Options& options_;
  const Inputs& in_;
  std::unique_ptr<stream::StreamPipeline> pipeline_;  ///< the last replay's
  std::unique_ptr<ReplayLayers> replays_;
  Samples timing_;  ///< CPU excludes the scraper thread's own
  std::vector<double> scrape_ms_, late_ms_;
  std::vector<std::vector<double>> route_ms_;
};

}  // namespace perfbench
