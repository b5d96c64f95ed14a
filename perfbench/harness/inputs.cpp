// Set-up shared by every path: the inputs a run derives from its seed.
#include <fstream>
#include <stdexcept>

#include "columnar/load.hpp"
#include "paths.hpp"
#include "sim/replay.hpp"

namespace perfbench {

using namespace failmine;

sim::SimResult build_inputs(const Options& options,
                            std::int64_t shuffle_seconds, Inputs& in) {
  const auto machine = topology::MachineConfig::mira();
  sim::SimConfig config;
  config.scale = options.scale;
  config.seed = options.seed;
  sim::SimResult trace = sim::simulate(config);
  sim::write_dataset(trace, options.data_dir);
  in.sizes = {trace.job_log.size(), trace.task_log.size(),
              trace.ras_log.size(), trace.io_log.size()};
  ingest::LoadOptions lo;
  lo.threads = options.threads;
  in.rows = sim::load_dataset(options.data_dir, machine, lo);
  in.columns = columnar::load_dataset(options.data_dir, machine, lo);
  in.replay = shuffle_seconds > 0
                  ? sim::shuffled_replay(trace, shuffle_seconds, options.seed)
                  : sim::build_replay(trace);
  // Twice the skew restores exact event-time order (sim/replay.hpp), as
  // the CLI's default lateness does.
  in.lateness_seconds = 2 * shuffle_seconds;
  return trace;
}

void add_references(const Options& options, const sim::SimResult& trace,
                    Inputs& in) {
  const core::JointAnalyzer analyzer(trace.job_log, trace.task_log,
                                     trace.ras_log, trace.io_log,
                                     topology::MachineConfig::mira());
  in.stream_reference.exits = analyzer.exit_breakdown();
  in.stream_reference.mtti =
      analyzer.interruption_analysis(core::FilterConfig{});

  sim::SimResult round_trip;
  round_trip.job_log = joblog::JobLog(in.columns.jobs.to_records());
  round_trip.task_log = tasklog::TaskLog(in.columns.tasks.to_records());
  round_trip.ras_log = raslog::RasLog(in.columns.ras.to_records());
  round_trip.io_log = iolog::IoLog(in.columns.io.to_records());
  in.report_reference = evaluate_report(round_trip, options.scale);
}

bool identical(const core::DatasetSummary& a, const core::DatasetSummary& b) {
  return same_bits(a.span_days, b.span_days) && a.jobs == b.jobs &&
         a.tasks == b.tasks && a.ras_events == b.ras_events &&
         a.ras_by_severity == b.ras_by_severity &&
         a.io_records == b.io_records &&
         same_bits(a.total_core_hours, b.total_core_hours);
}

void corrupt_one_row(const Options& options) {
  const std::string path = options.data_dir + "/ras.csv";
  std::string text = read_file(path);
  // header \n row1 \n row2: the timestamp is row2's second field.
  std::size_t pos = text.find('\n');
  if (pos != std::string::npos) pos = text.find('\n', pos + 1);
  const std::size_t begin =
      pos == std::string::npos ? pos : text.find(',', pos + 1);
  const std::size_t end =
      begin == std::string::npos ? begin : text.find(',', begin + 1);
  if (end == std::string::npos)
    throw std::runtime_error("corrupt_one_row: " + path + " has < 2 rows");
  text.replace(begin + 1, end - begin - 1, "not-a-time");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("corrupt_one_row: cannot write " + path);
}

}  // namespace perfbench
