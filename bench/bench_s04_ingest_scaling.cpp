// S04 — batch ingest scaling: rows/sec loading all four CSV logs with
// the mmap ingest engine at 1, 2, 4 and 8 worker threads.
//
// The dataset is written to disk once (a larger default scale than the
// other benches — the point is parsing throughput on a paper-sized
// trace, around a million CSV rows at the default 0.2). Each
// configuration reloads every log from disk; the table reports rows/sec
// and the speedup over one thread (the engine parsing a single chunk
// inline, the one-core baseline), and asserts that every configuration
// parses exactly the same number of records. On hosts with at least
// four hardware threads the engine at 4 threads must beat 1 thread by
// >= 2.5x; on smaller hosts the gate is reported but not enforced (there
// is no parallelism to win).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "ingest/loader.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "sim/simulator.hpp"
#include "tasklog/task.hpp"

namespace {

using namespace failmine;

const sim::SimConfig& s04_config() {
  static const sim::SimConfig config = [] {
    sim::SimConfig c;
    // FAILMINE_BENCH_SCALE still applies, but the S04 default is 2x the
    // common bench scale: ingest throughput needs row counts big enough
    // that per-file setup (open, mmap, chunk planning) is noise.
    c.scale = 0.2;
    if (const char* env = std::getenv("FAILMINE_BENCH_SCALE"))
      c.scale = bench::parse_bench_scale(env, c.scale);
    return c;
  }();
  return config;
}

/// Simulates once and writes the four logs to a temp directory.
const std::string& dataset_dir() {
  static const std::string dir = [] {
    FAILMINE_TRACE_SPAN("bench.dataset_build");
    const auto path =
        std::filesystem::temp_directory_path() /
        ("failmine_bench_s04_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
    const sim::SimResult trace = sim::simulate(s04_config());
    sim::write_dataset(trace, path.string());
    return path.string();
  }();
  return dir;
}

struct LoadResult {
  std::size_t rows = 0;
  double seconds = 0.0;
};

/// Loads all four logs with `threads` workers; returns the total record
/// count and wall time.
LoadResult run_load(unsigned threads) {
  ingest::LoadOptions options;
  options.threads = threads;
  const std::string& dir = dataset_dir();
  const auto start = std::chrono::steady_clock::now();
  const auto ras =
      raslog::RasLog::read_csv(dir + "/ras.csv", s04_config().machine, options);
  const auto jobs = joblog::JobLog::read_csv(dir + "/jobs.csv", options);
  const auto tasks = tasklog::TaskLog::read_csv(dir + "/tasks.csv", options);
  const auto io = iolog::IoLog::read_csv(dir + "/io.csv", options);
  LoadResult r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.rows = ras.size() + jobs.size() + tasks.size() + io.size();
  return r;
}

void print_table() {
  bench::print_header("S04", "parallel mmap ingest scaling",
                      "rows/sec, mmap engine at 1-8 threads vs 1 thread");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host concurrency: %u hardware threads\n", hw);
  std::printf("dataset: %s (scale %.3g)\n", dataset_dir().c_str(),
              s04_config().scale);
  std::printf("%-14s %10s %10s %12s %9s\n", "engine", "rows", "secs",
              "rows/s", "speedup");

  const LoadResult base = run_load(1);
  const double base_rate = static_cast<double>(base.rows) / base.seconds;
  std::printf("mmap@%-9u %10zu %10.3f %12.0f %8.2fx\n", 1u, base.rows,
              base.seconds, base_rate, 1.0);

  double speedup_at_4 = 0.0;
  for (unsigned threads : {2u, 4u, 8u}) {
    const LoadResult r = run_load(threads);
    if (r.rows != base.rows) {
      std::fprintf(stderr,
                   "FATAL: mmap@%u parsed %zu rows, mmap@1 parsed %zu\n",
                   threads, r.rows, base.rows);
      std::exit(1);
    }
    const double rate = static_cast<double>(r.rows) / r.seconds;
    const double speedup = rate / base_rate;
    if (threads == 4) speedup_at_4 = speedup;
    std::printf("mmap@%-9u %10zu %10.3f %12.0f %8.2fx\n", threads, r.rows,
                r.seconds, rate, speedup);
  }

  // Scaling gate: only meaningful where the hardware has the cores.
  if (hw >= 4) {
    if (speedup_at_4 < 2.5) {
      std::fprintf(stderr,
                   "FATAL: mmap@4 speedup %.2fx < 2.5x gate (%u hardware "
                   "threads)\n",
                   speedup_at_4, hw);
      std::exit(1);
    }
    std::printf("gate: mmap@4 speedup %.2fx >= 2.5x  OK\n", speedup_at_4);
  } else {
    std::printf("gate: skipped (%u hardware threads < 4; mmap@4 measured "
                "%.2fx)\n",
                hw, speedup_at_4);
  }
}

void BM_IngestMapped(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::size_t rows = 0;
  for (auto _ : state) {
    const LoadResult r = run_load(threads);
    rows = r.rows;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_IngestMapped)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  failmine::bench::ObsSession obs_session(&argc, argv);
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove_all(dataset_dir());
  return 0;
}
