// perfbench_harness — runs one benchmark workload in one process.
//
//   perfbench_harness --workload ordered|shuffled --seed N --seconds S
//                     --trace 0|1 --scale X --data-dir DIR
//                     [--trace-out PATH] [--corrupt-row]
//
// Every run times the same four user paths (paths.hpp) on inputs derived
// from the seed; the workloads differ in event arrival order. The last
// stdout line is the JSON result; the exit code is 0 only when every
// output check passed. run.py builds this binary, supplies the scratch
// paths and adds the host block. NOTES.md explains the choices.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "paths.hpp"

namespace {

using perfbench::Options;

/// Out-of-order skew of the `shuffled` workload's replay, in event-time
/// seconds (the CLI's `stream --shuffle 300`).
constexpr std::int64_t kShuffleSeconds = 300;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "ordered|shuffled --seed N --seconds S --trace 0|1 "
               "--scale X --data-dir DIR [--trace-out PATH] "
               "[--corrupt-row]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt-row") {
      o.corrupt_row = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--scale") o.scale = std::stod(value);
    else if (key == "--data-dir") o.data_dir = value;
    else if (key == "--trace-out") o.trace_out = value;
    else usage("unknown option " + key);
  }
  if (o.workload != "ordered" && o.workload != "shuffled")
    usage("--workload must be ordered or shuffled");
  if (o.data_dir.empty()) usage("--data-dir is required");
  if (!(o.scale > 0.0) || !(o.seconds > 0.0))
    usage("--scale and --seconds must be positive");
  o.threads = std::max(1u, std::thread::hardware_concurrency());
  return o;
}

void run(const Options& options, perfbench::Report& report) {
  using namespace perfbench;
  const std::int64_t shuffle =
      options.workload == "shuffled" ? kShuffleSeconds : 0;
  Inputs in;
  sim::SimResult trace;
  const double setup_s =
      timed_setup([&] { trace = build_inputs(options, shuffle, in); },
                  [&] {
                    in = Inputs{};
                    trace = {};
                  });
  add_references(options, trace, in);
  trace = {};
  if (options.corrupt_row) corrupt_one_row(options);
  report.config("ingest_threads", options.threads);
  report.config("ingest_threads_baseline", 1);
  report.config("stream_shards", 2);
  report.config("stream_shards_baseline", 1);
  report.config("live_shards", 1);
  report.config("shuffle_s", static_cast<double>(shuffle));
  report.config("lateness_s", static_cast<double>(in.lateness_seconds));
  report.config("csv_rows",
                static_cast<double>(in.sizes.jobs + in.sizes.tasks +
                                    in.sizes.ras + in.sizes.io));
  report.config("replay_records", static_cast<double>(in.replay.size()));
  reset_peak_rss();

  IngestPath ingest(options, in);
  AnalyzePath analyze(options, in);
  StreamPath stream(options, in);
  LivePath live(options, in);
  // The traced run turns spans on for every other round; the two halves'
  // median round times give the tracing overhead.
  std::vector<double> round_s, traced_round_s;
  repeat_for(options, [&](const Rep& rep) {
    const auto t0 = Clock::now();
    ingest.round(rep, report);
    analyze.round(rep, report);
    stream.round(rep, report);
    live.round(rep, report);
    if (!rep.warmup)
      (rep.traced ? traced_round_s : round_s).push_back(seconds_since(t0));
  });

  report.config("rounds",
                static_cast<double>(round_s.size() + traced_round_s.size()));
  if (!options.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    ingest.metrics(report);
    analyze.metrics(report);
    stream.metrics(report);
    live.metrics(report);
    return;
  }
  report.metric("trace.overhead_pct",
                100.0 * (median(traced_round_s) / median(round_s) - 1.0), "%");
  ingest.layers(report);
  analyze.layers(report);
  stream.layers(report);
  live.layers(report);
  if (!options.trace_out.empty()) spans().write_chrome_json(options.trace_out);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::filesystem::create_directories(options.data_dir);
  perfbench::Report report;
  report.config("seed", static_cast<double>(options.seed));
  report.config("scale", options.scale);
  report.config("nproc", options.threads);
  try {
    run(options, report);
  } catch (const std::exception& e) {
    report.op(false, std::string("run aborted: ") + e.what());
  }
  return report.print();
}
