// perfbench/harness/common.hpp
//
// Shared plumbing of the benchmark harness: run options, the timed-loop
// and set-up helpers, the benchmark's own span log, peak-RSS sampling and
// the Report that collects checks and metrics and prints the result.
//
// The harness measures failmine from outside: every number comes from
// timing calls into a library's public functions, or from the counters,
// histograms and spans the program already exports. It adds no
// instrumentation to the library.
#pragma once

#include <sched.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, or of every thread of the process.
double thread_cpu_seconds();
double process_cpu_seconds();

/// Wall-clock and process CPU time since construction. The CPU time
/// excludes what the hypervisor steals from the vCPUs and the time
/// threads wait for each other, both of which swing with the load of a
/// shared host far more than with the code (NOTES.md).
class Stopwatch {
 public:
  double wall_s() const { return seconds_since(wall0_); }
  double cpu_s() const { return process_cpu_seconds() - cpu0_; }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = process_cpu_seconds();
};

/// CPU seconds of one reference-kernel run at the nominal host speed,
/// about its median on the baseline host (NOTES.md). A probed operation's
/// CPU time is scaled by this over the kernel's time measured next to it.
inline constexpr double kNominalReferenceS = 0.0009;

/// How fast the calling thread's vCPU runs fixed work right now,
/// measured on both sides of one single-threaded operation pinned there.
/// A shared host's vCPUs change speed for a fraction of a second to
/// minutes at a time (a busy SMT sibling, a lower clock), and the CPU time
/// an operation costs changes with them. The reference kernel
/// (common.cpp) is the harness's own fixed work, not failmine's, so no
/// change to failmine can move it: it parses CSV-like text held in the L2
/// cache and counts hashed fields in a small table. A probe is the median
/// CPU time of three kernel runs. Which operations are scaled by it, and
/// why those, is in NOTES.md.
class SpeedProbe {
 public:
  /// Probes before the operation.
  SpeedProbe();
  /// Probes after it.
  void finish();
  /// Mean of the two probes, in CPU seconds per kernel run.
  double reference_s() const;

 private:
  double before_s_;
  double after_s_ = 0;
};

/// Wall-clock and CPU seconds of the repetitions of one operation, and
/// for a probed operation the reference-kernel seconds measured next to
/// each.
struct Samples {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> reference_s;
  void add(double wall, double cpu) {
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
  }
  void add(const Stopwatch& watch) { add(watch.wall_s(), watch.cpu_s()); }
  void add(double wall, double cpu, const SpeedProbe& probe) {
    add(wall, cpu);
    reference_s.push_back(probe.reference_s());
  }
  /// Each CPU time scaled to the nominal host speed:
  /// cpu_s * kNominalReferenceS / reference_s.
  std::vector<double> nominal_cpu_s() const;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Median over 3 runs of fn()'s wall-clock seconds divided by `items`,
/// the number of items one run handles; prepare() runs untimed before
/// each run. The traced run's per-layer costs all come from here.
template <class Prepare, class Fn>
double median_seconds_per(std::size_t items, Prepare&& prepare, Fn&& fn) {
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    prepare();
    const auto t0 = Clock::now();
    fn();
    runs.push_back(seconds_since(t0) /
                   static_cast<double>(items == 0 ? 1 : items));
  }
  return median(std::move(runs));
}

template <class Fn>
double median_seconds_per(std::size_t items, Fn&& fn) {
  return median_seconds_per(items, [] {}, fn);
}

/// Equal bit for bit: the parity checks compare results this way.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The whole file as bytes; throws std::runtime_error if it cannot be read.
std::string read_file(const std::string& path);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Simulated trace size (1.0 = the paper's 2001-day Mira logs).
  double scale = 0;
  /// Scratch directory for the generated CSV files.
  std::string data_dir;
  /// Where the traced run writes its spans (chrome-trace JSON).
  std::string trace_out;
  /// Test hook: corrupt one RAS CSV row after set-up, so the output
  /// checks must fail the run.
  bool corrupt_row = false;
  /// Ingest threads / busy-thread budget (hardware concurrency).
  unsigned threads = 1;
};

/// Set-up runs this many times; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Spans are recorded by the harness's main thread only.
class SpanLog;
SpanLog& spans();

/// One repetition of a workload's timed loop.
struct Rep {
  bool warmup = false;    ///< untimed first pass; its samples are dropped
  bool traced = false;    ///< the benchmark's spans are on
  std::size_t index = 0;  ///< 0 for the warm-up, then 1, 2, ...
};

/// Runs one warm-up repetition (caches, allocator and lazy set-up fill
/// before timing), then repeats fn until options.seconds have passed
/// and at least 3 measured repetitions are done. The traced run turns
/// the spans on for every other measured repetition, so the two halves
/// give the tracing overhead.
template <class Fn>
void repeat_for(const Options& options, Fn&& fn);

/// Pins the calling thread to one of its CPUs, chosen by `rep` in turn,
/// and restores its CPU set on destruction. Single-threaded operations
/// run under it so that a run samples every vCPU evenly: on a shared host
/// one vCPU can run 20% slower than another for minutes, and a thread the
/// scheduler leaves there carries that into every sample. Threads inherit
/// the CPU set of their creator, so nothing that starts threads may run
/// while pinned.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t rep);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Times kSetupReps runs of build() and returns the median seconds;
/// reset() frees the previous run's result first, untimed.
template <class Build, class Reset>
double timed_setup(Build&& build, Reset&& reset) {
  std::vector<double> runs;
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) reset();
    const auto t0 = Clock::now();
    build();
    runs.push_back(seconds_since(t0));
  }
  return median(std::move(runs));
}

/// Returns freed heap to the kernel and resets the process's peak
/// resident size (VmHWM), so peak_rss_mb() covers only what follows.
void reset_peak_rss();
/// VmHWM in MiB.
double peak_rss_mb();

/// The benchmark's own spans, recorded around the calls into each layer
/// in the traced run and kept in memory until the run ends. Off in the
/// end-to-end run.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    Clock::time_point start_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  Scope scope(const char* name) { return Scope(*this, name); }

  /// Durations (µs) of every recorded span called `name`.
  std::vector<double> durations_us(std::string_view name) const;
  /// Chrome-trace JSON ("X" events); throws std::runtime_error on I/O
  /// failure.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start_us;
    double dur_us;
  };
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
};

/// Median duration in ms / µs of the spans called `name`.
double span_ms(std::string_view name);
double span_us(std::string_view name);

template <class Fn>
void repeat_for(const Options& options, Fn&& fn) {
  spans().set_enabled(false);
  fn(Rep{true, false, 0});
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < 3 || seconds_since(t0) < options.seconds; ++i) {
    const Rep rep{false, options.trace && i % 2 == 0, i + 1};
    spans().set_enabled(rep.traced);
    fn(rep);
  }
  spans().set_enabled(options.trace);
}

/// Checks, metrics and provenance of one run.
class Report {
 public:
  /// One attempted operation; `ok == false` counts it failed and logs
  /// `what` to stderr.
  void op(bool ok, std::string_view what);
  void metric(std::string name, double value, std::string unit);
  /// Workload configuration echoed into the provenance block
  /// (thread and shard counts, sizes).
  void config(std::string key, double value);

  /// Prints every metric with its unit, the failed-ops ratio, the
  /// config line and, last, the one-line JSON result. Returns the exit
  /// code: 0 only when every operation passed its checks.
  int print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> config_;
};

/// Row counts of the four generated logs.
struct DatasetSizes {
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ras = 0;
  std::uint64_t io = 0;
};

}  // namespace perfbench
