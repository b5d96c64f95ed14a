// failmine/iolog/io_record.hpp
//
// Darshan-style per-job I/O behaviour records.
//
// Darshan instruments each job's POSIX/MPI-IO activity; the paper joins
// this log with the scheduler log to contrast the I/O volume of failed
// versus successful jobs (experiment E12). We keep the aggregate counters
// the analysis needs.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/loader.hpp"

namespace failmine::util {
class FieldVec;
}  // namespace failmine::util

namespace failmine::iolog {

/// Aggregated I/O counters of one job.
struct IoRecord {
  std::uint64_t job_id = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double read_time_seconds = 0.0;
  double write_time_seconds = 0.0;
  std::uint32_t files_accessed = 0;
  std::uint32_t ranks_doing_io = 0;

  std::uint64_t total_bytes() const { return bytes_read + bytes_written; }

  friend bool operator==(const IoRecord&, const IoRecord&) = default;
};

/// The I/O log CSV column order.
const std::vector<std::string>& io_csv_header();

/// Parses one CSV row (io_csv_header() order) into `out` in place.
/// Throws failmine::Error on invalid rows; `out` is unspecified
/// afterwards.
void parse_csv_row(const util::FieldVec& row, IoRecord& out);

/// In-memory I/O log, keyed by job id. Not every job has a record —
/// Darshan coverage on Mira was partial, which the simulator reproduces.
class IoLog {
 public:
  IoLog() = default;
  explicit IoLog(std::vector<IoRecord> records);

  const std::vector<IoRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  void append(IoRecord record);
  /// Sorts unless already in order (equal keys keep their order) and
  /// rebuilds the index.
  void finalize();

  bool contains(std::uint64_t job_id) const;
  /// Throws DomainError if absent.
  const IoRecord& by_job(std::uint64_t job_id) const;

  void write_csv(const std::string& path) const;

  /// Reads a log written by write_csv through the mmap ingest engine
  /// (ingest/loader.hpp); every thread count gives identical results.
  static IoLog read_csv(const std::string& path,
                        const ingest::LoadOptions& options = {});

 private:
  std::vector<IoRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace failmine::iolog
