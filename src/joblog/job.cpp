#include "joblog/job.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::joblog {

double JobRecord::core_hours(const topology::MachineConfig& config) const {
  return static_cast<double>(nodes_used) *
         static_cast<double>(config.cores_per_node) *
         (static_cast<double>(runtime_seconds()) / 3600.0);
}

topology::Partition JobRecord::partition(
    const topology::MachineConfig& config) const {
  const int mids = topology::midplanes_for_nodes(nodes_used, config);
  return topology::Partition(partition_first_midplane, mids, config);
}

const std::vector<std::string>& job_csv_header() {
  static const std::vector<std::string> header = {
      "job_id",     "user_id",   "project_id",      "queue",
      "submit_time", "start_time", "end_time",      "nodes_used",
      "task_count", "requested_walltime", "exit_code", "exit_signal",
      "exit_class", "partition_first_midplane"};
  return header;
}

JobLog::JobLog(std::vector<JobRecord> jobs) : jobs_(std::move(jobs)) { finalize(); }

void JobLog::append(JobRecord job) { jobs_.push_back(std::move(job)); }

void JobLog::finalize() {
  const auto before = [](const JobRecord& a, const JobRecord& b) {
    if (a.start_time != b.start_time) return a.start_time < b.start_time;
    return a.job_id < b.job_id;
  };
  // Loaded logs are almost always in order already: one O(n) check
  // usually saves the sort. Stable, so equal keys keep file order.
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), before))
    std::stable_sort(jobs_.begin(), jobs_.end(), before);
  index_.clear();
  index_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(jobs_[i].job_id, i);
    if (!inserted)
      throw failmine::DomainError("duplicate job id " +
                                  std::to_string(jobs_[i].job_id));
  }
}

const JobRecord& JobLog::by_id(std::uint64_t job_id) const {
  const auto it = index_.find(job_id);
  if (it == index_.end())
    throw failmine::DomainError("unknown job id " + std::to_string(job_id));
  return jobs_[it->second];
}

bool JobLog::contains(std::uint64_t job_id) const {
  return index_.contains(job_id);
}

std::vector<JobRecord> JobLog::failures() const {
  std::vector<JobRecord> out;
  for (const auto& j : jobs_)
    if (j.failed()) out.push_back(j);
  return out;
}

double JobLog::total_core_hours(const topology::MachineConfig& config) const {
  double total = 0.0;
  for (const auto& j : jobs_) total += j.core_hours(config);
  return total;
}

double JobLog::span_days() const {
  if (jobs_.empty()) return 0.0;
  util::UnixSeconds lo = jobs_.front().submit_time;
  util::UnixSeconds hi = jobs_.front().end_time;
  for (const auto& j : jobs_) {
    lo = std::min(lo, j.submit_time);
    hi = std::max(hi, j.end_time);
  }
  return static_cast<double>(hi - lo) / static_cast<double>(util::kSecondsPerDay);
}

void JobLog::write_csv(const std::string& path) const {
  util::CsvWriter writer(path, job_csv_header());
  for (const auto& j : jobs_) {
    writer.write_row({
        std::to_string(j.job_id),
        std::to_string(j.user_id),
        std::to_string(j.project_id),
        j.queue,
        util::format_timestamp(j.submit_time),
        util::format_timestamp(j.start_time),
        util::format_timestamp(j.end_time),
        std::to_string(j.nodes_used),
        std::to_string(j.task_count),
        std::to_string(j.requested_walltime),
        std::to_string(j.exit_code),
        std::to_string(j.exit_signal),
        exit_class_name(j.exit_class),
        std::to_string(j.partition_first_midplane),
    });
  }
  writer.close();
}

void parse_csv_row(const util::FieldVec& row, JobRecord& j) {
  j.job_id = util::parse_uint(row[0]);
  j.user_id = static_cast<std::uint32_t>(util::parse_uint(row[1]));
  j.project_id = static_cast<std::uint32_t>(util::parse_uint(row[2]));
  j.queue = row[3];
  j.submit_time = util::parse_timestamp(row[4]);
  j.start_time = util::parse_timestamp(row[5]);
  j.end_time = util::parse_timestamp(row[6]);
  j.nodes_used = static_cast<std::uint32_t>(util::parse_uint(row[7]));
  j.task_count = static_cast<std::uint32_t>(util::parse_uint(row[8]));
  j.requested_walltime = util::parse_int(row[9]);
  j.exit_code = static_cast<int>(util::parse_int(row[10]));
  j.exit_signal = static_cast<int>(util::parse_int(row[11]));
  j.exit_class = exit_class_from_name(row[12]);
  j.partition_first_midplane = static_cast<int>(util::parse_int(row[13]));
  if (j.end_time < j.start_time)
    throw failmine::ParseError("job " + std::string(row[0]) +
                               " ends before it starts");
  if (j.start_time < j.submit_time)
    throw failmine::ParseError("job " + std::string(row[0]) +
                               " starts before submission");
}

JobLog JobLog::read_csv(const std::string& path,
                        const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("joblog.read_csv");
  return JobLog(ingest::load_csv<JobRecord>(
      path, job_csv_header(), "joblog", "job log", "parse.joblog.records",
      [](const util::FieldVec& row, JobRecord& j) { parse_csv_row(row, j); },
      options));
}

void JobLog::for_each_csv(
    const std::string& path,
    const std::function<bool(const JobRecord&)>& callback) {
  FAILMINE_TRACE_SPAN("joblog.read_csv");
  JobRecord j;
  ingest::for_each_csv(
      path, job_csv_header(), "joblog", "job log", "parse.joblog.records",
      [&](const util::FieldVec& row) { parse_csv_row(row, j); },
      [&] { return callback(j); });
}

}  // namespace failmine::joblog
