#include "iolog/io_record.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::iolog {

const std::vector<std::string>& io_csv_header() {
  static const std::vector<std::string> header = {
      "job_id",        "bytes_read",        "bytes_written",
      "read_time_s",   "write_time_s",      "files_accessed",
      "ranks_doing_io"};
  return header;
}

IoLog::IoLog(std::vector<IoRecord> records) : records_(std::move(records)) {
  finalize();
}

void IoLog::append(IoRecord record) { records_.push_back(record); }

void IoLog::finalize() {
  const auto before = [](const IoRecord& a, const IoRecord& b) {
    return a.job_id < b.job_id;
  };
  if (!std::is_sorted(records_.begin(), records_.end(), before))
    std::stable_sort(records_.begin(), records_.end(), before);
  index_.clear();
  index_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(records_[i].job_id, i);
    if (!inserted)
      throw failmine::DomainError("duplicate I/O record for job " +
                                  std::to_string(records_[i].job_id));
  }
}

bool IoLog::contains(std::uint64_t job_id) const { return index_.contains(job_id); }

const IoRecord& IoLog::by_job(std::uint64_t job_id) const {
  const auto it = index_.find(job_id);
  if (it == index_.end())
    throw failmine::DomainError("no I/O record for job " + std::to_string(job_id));
  return records_[it->second];
}

void IoLog::write_csv(const std::string& path) const {
  util::CsvWriter writer(path, io_csv_header());
  for (const auto& r : records_) {
    writer.write_row({
        std::to_string(r.job_id),
        std::to_string(r.bytes_read),
        std::to_string(r.bytes_written),
        util::format_double(r.read_time_seconds, 3),
        util::format_double(r.write_time_seconds, 3),
        std::to_string(r.files_accessed),
        std::to_string(r.ranks_doing_io),
    });
  }
  writer.close();
}

void parse_csv_row(const util::FieldVec& row, IoRecord& r) {
  r.job_id = util::parse_uint(row[0]);
  r.bytes_read = util::parse_uint(row[1]);
  r.bytes_written = util::parse_uint(row[2]);
  r.read_time_seconds = util::parse_double(row[3]);
  r.write_time_seconds = util::parse_double(row[4]);
  r.files_accessed = static_cast<std::uint32_t>(util::parse_uint(row[5]));
  r.ranks_doing_io = static_cast<std::uint32_t>(util::parse_uint(row[6]));
}

IoLog IoLog::read_csv(const std::string& path,
                      const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("iolog.read_csv");
  return IoLog(ingest::load_csv<IoRecord>(
      path, io_csv_header(), "iolog", "I/O log", "parse.iolog.records",
      [](const util::FieldVec& row, IoRecord& r) { parse_csv_row(row, r); },
      options));
}

}  // namespace failmine::iolog
