// Ingest parity on a real simulated trace: for all four log types the
// mmap engine must produce, at every thread count, the records that were
// written (the write_csv → read_csv round trip) with identical parse.*
// metric deltas, and — on corrupted input — the error and counters of
// the line-oriented util::CsvReader, kept as an independent serial
// oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "ingest/loader.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "obs/metrics.hpp"
#include "raslog/event.hpp"
#include "sim/simulator.hpp"
#include "tasklog/task.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine {
namespace {

ingest::LoadOptions mapped_options(unsigned threads) {
  ingest::LoadOptions options;
  options.threads = threads;
  // A tiny floor keeps the plan genuinely multi-chunk even on the small
  // test-scale CSVs.
  options.min_chunk_bytes = 512;
  return options;
}

struct ParseDeltas {
  std::uint64_t lines_total;
  std::uint64_t lines_rejected;
  std::uint64_t records;

  static ParseDeltas snap(const char* records_counter) {
    obs::MetricsRegistry& m = obs::metrics();
    return {m.counter("parse.lines_total").value(),
            m.counter("parse.lines_rejected").value(),
            m.counter(records_counter).value()};
  }
  ParseDeltas since(const ParseDeltas& base) const {
    return {lines_total - base.lines_total,
            lines_rejected - base.lines_rejected, records - base.records};
  }
  friend bool operator==(const ParseDeltas&, const ParseDeltas&) = default;
};

class IngestParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("failmine_ingest_parity_" + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);
    sim::SimConfig config = sim::SimConfig::test_scale();
    config.scale = 0.002;
    trace_ = new sim::SimResult(sim::simulate(config));
    machine_ = new topology::MachineConfig(config.machine);
    sim::write_dataset(*trace_, *dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete trace_;
    delete machine_;
    delete dir_;
    trace_ = nullptr;
    machine_ = nullptr;
    dir_ = nullptr;
  }

  static std::string path(const char* name) { return *dir_ + "/" + name; }

  static std::string* dir_;
  static sim::SimResult* trace_;
  static topology::MachineConfig* machine_;
};

std::string* IngestParity::dir_ = nullptr;
sim::SimResult* IngestParity::trace_ = nullptr;
topology::MachineConfig* IngestParity::machine_ = nullptr;

/// Loads one log through the mmap engine at 1, 2 and 8 threads,
/// asserting the serial reference's record sequence and one parse.*
/// count per record. `load` is `Records(const ingest::LoadOptions&)`.
template <class Records, class LoadFn>
void expect_parity(const char* records_counter, const Records& serial,
                   LoadFn&& load) {
  const ParseDeltas serial_delta{serial.size(), 0, serial.size()};
  for (unsigned threads : {1u, 2u, 8u}) {
    const ParseDeltas before = ParseDeltas::snap(records_counter);
    const auto parallel = load(mapped_options(threads));
    const ParseDeltas delta = ParseDeltas::snap(records_counter).since(before);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(parallel[i], serial[i])
          << "threads=" << threads << " record=" << i;
    EXPECT_EQ(delta, serial_delta) << "threads=" << threads;
  }
}

TEST_F(IngestParity, RasLogMatchesSerial) {
  expect_parity("parse.raslog.records", trace_->ras_log.events(),
                [](const ingest::LoadOptions& o) {
                  return raslog::RasLog::read_csv(path("ras.csv"), *machine_, o)
                      .events();
                });
}

TEST_F(IngestParity, JobLogMatchesSerial) {
  expect_parity("parse.joblog.records", trace_->job_log.jobs(),
                [](const ingest::LoadOptions& o) {
                  return joblog::JobLog::read_csv(path("jobs.csv"), o).jobs();
                });
}

TEST_F(IngestParity, TaskLogMatchesSerial) {
  expect_parity("parse.tasklog.records", trace_->task_log.tasks(),
                [](const ingest::LoadOptions& o) {
                  return tasklog::TaskLog::read_csv(path("tasks.csv"), o)
                      .tasks();
                });
}

TEST_F(IngestParity, IoLogMatchesSerial) {
  // The CSV schema stores I/O times at millisecond precision, so the
  // written records are the trace's with both times rounded that way.
  std::vector<iolog::IoRecord> written = trace_->io_log.records();
  for (auto& r : written) {
    r.read_time_seconds =
        util::parse_double(util::format_double(r.read_time_seconds, 3));
    r.write_time_seconds =
        util::parse_double(util::format_double(r.write_time_seconds, 3));
  }
  expect_parity("parse.iolog.records", written,
                [](const ingest::LoadOptions& o) {
                  return iolog::IoLog::read_csv(path("io.csv"), o).records();
                });
}

TEST_F(IngestParity, StreamFallbackMatchesMapped) {
  ingest::LoadOptions mapped = mapped_options(4);
  ingest::LoadOptions streamed = mapped;
  streamed.force_stream = true;
  EXPECT_EQ(joblog::JobLog::read_csv(path("jobs.csv"), mapped).jobs(),
            joblog::JobLog::read_csv(path("jobs.csv"), streamed).jobs());
}

TEST_F(IngestParity, LoadDatasetDefaultsToIngestEngine) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t bytes_before = m.counter("ingest.bytes_mapped").value();
  const sim::SimResult loaded = sim::load_dataset(*dir_, *machine_);
  EXPECT_EQ(loaded.job_log.size(), trace_->job_log.size());
  EXPECT_EQ(loaded.ras_log.size(), trace_->ras_log.size());
  EXPECT_EQ(loaded.task_log.size(), trace_->task_log.size());
  EXPECT_EQ(loaded.io_log.size(), trace_->io_log.size());
  // The default path goes through the mmap engine, so the ingest
  // counters must have advanced by at least the four files' bytes.
  EXPECT_GT(m.counter("ingest.bytes_mapped").value(), bytes_before);
}

TEST_F(IngestParity, CorruptedRowFailsIdenticallyToSerial) {
  // Append a malformed row (wrong arity) to a copy of the job log; the
  // engine must reject it with the CsvReader oracle's exact message and
  // counters, plus one records count per good row before it.
  const std::string corrupted = *dir_ + "/jobs_corrupted.csv";
  std::filesystem::copy_file(path("jobs.csv"), corrupted,
                             std::filesystem::copy_options::overwrite_existing);
  { std::ofstream(corrupted, std::ios::app) << "999,bad,row\n"; }

  std::string serial_error;
  std::size_t good_rows = 0;
  ParseDeltas before = ParseDeltas::snap("parse.joblog.records");
  try {
    util::CsvReader reader(corrupted);
    std::vector<std::string> row;
    while (reader.next(row)) ++good_rows;
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    serial_error = e.what();
  }
  ParseDeltas serial_delta =
      ParseDeltas::snap("parse.joblog.records").since(before);
  EXPECT_EQ(good_rows, trace_->job_log.size());
  EXPECT_EQ(serial_delta.lines_total, good_rows + 1);
  EXPECT_EQ(serial_delta.lines_rejected, 1u);
  serial_delta.records = good_rows;

  for (unsigned threads : {1u, 2u, 8u}) {
    before = ParseDeltas::snap("parse.joblog.records");
    try {
      joblog::JobLog::read_csv(corrupted, mapped_options(threads));
      FAIL() << "expected ParseError (threads=" << threads << ")";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), serial_error)
          << "threads=" << threads;
    }
    EXPECT_EQ(ParseDeltas::snap("parse.joblog.records").since(before),
              serial_delta)
        << "threads=" << threads;
  }
  std::filesystem::remove(corrupted);
}

TEST_F(IngestParity, QuotedNewlinesLoadAtEveryThreadCount) {
  // RFC 4180 lets a quoted field hold a line break. The engine has
  // always accepted one at N threads; with no separate serial reader,
  // one thread and the streaming for_each_csv accept it too.
  std::vector<raslog::RasEvent> events(trace_->ras_log.events().begin(),
                                       trace_->ras_log.events().begin() + 50);
  for (std::size_t i = 0; i < events.size(); i += 3)
    events[i].text = "first line\nsecond, \"quoted\" line";
  const raslog::RasLog log(events);
  const std::string file = *dir_ + "/ras_multiline.csv";
  log.write_csv(file);
  for (unsigned threads : {1u, 2u, 8u})
    EXPECT_EQ(raslog::RasLog::read_csv(file, *machine_,
                                       mapped_options(threads))
                  .events(),
              log.events())
        << "threads=" << threads;
  std::vector<raslog::RasEvent> streamed;
  raslog::RasLog::for_each_csv(file, *machine_,
                               [&](const raslog::RasEvent& e) {
                                 streamed.push_back(e);
                                 return true;
                               });
  EXPECT_EQ(streamed, log.events());
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace failmine
