#include "raslog/event.hpp"

#include <algorithm>
#include <array>

#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace failmine::raslog {

const std::vector<std::string>& ras_csv_header() {
  static const std::vector<std::string> header = {
      "record_id", "timestamp", "message_id", "severity", "component",
      "category",  "location",  "job_id",     "text"};
  return header;
}

RasLog::RasLog(std::vector<RasEvent> events) : events_(std::move(events)) {
  finalize();
}

void RasLog::append(RasEvent event) { events_.push_back(std::move(event)); }

void RasLog::finalize() {
  const auto before = [](const RasEvent& a, const RasEvent& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.record_id < b.record_id;
  };
  // Loaded logs are almost always in order already: one O(n) check
  // usually saves the sort. Stable, so equal keys keep file order.
  if (!std::is_sorted(events_.begin(), events_.end(), before))
    std::stable_sort(events_.begin(), events_.end(), before);
}

std::vector<RasEvent> RasLog::filter_severity(Severity severity) const {
  std::vector<RasEvent> out;
  for (const auto& e : events_)
    if (e.severity == severity) out.push_back(e);
  return out;
}

std::vector<RasEvent> RasLog::filter_time(util::UnixSeconds begin,
                                          util::UnixSeconds end) const {
  std::vector<RasEvent> out;
  for (const auto& e : events_)
    if (e.timestamp >= begin && e.timestamp < end) out.push_back(e);
  return out;
}

std::array<std::uint64_t, 3> RasLog::severity_counts() const {
  std::array<std::uint64_t, 3> counts{};
  for (const auto& e : events_) ++counts[static_cast<std::size_t>(e.severity)];
  return counts;
}

void RasLog::write_csv(const std::string& path) const {
  util::CsvWriter writer(path, ras_csv_header());
  for (const auto& e : events_) {
    writer.write_row({
        std::to_string(e.record_id),
        util::format_timestamp(e.timestamp),
        e.message_id,
        severity_name(e.severity),
        component_name(e.component),
        category_name(e.category),
        e.location.to_string(),
        e.job_id ? std::to_string(*e.job_id) : "",
        e.text,
    });
  }
  writer.close();
}

void parse_csv_row(const util::FieldVec& row,
                   const topology::MachineConfig& config, RasEvent& e) {
  e.record_id = util::parse_uint(row[0]);
  e.timestamp = util::parse_timestamp(row[1]);
  e.message_id = row[2];
  e.severity = severity_from_name(row[3]);
  e.component = component_from_name(row[4]);
  e.category = category_from_name(row[5]);
  e.location = topology::Location::parse(row[6], config);
  if (!row[7].empty())
    e.job_id = util::parse_uint(row[7]);
  else
    e.job_id.reset();
  e.text = row[8];
}

RasLog RasLog::read_csv(const std::string& path,
                        const topology::MachineConfig& config,
                        const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("raslog.read_csv");
  return RasLog(ingest::load_csv<RasEvent>(
      path, ras_csv_header(), "raslog", "RAS log", "parse.raslog.records",
      [&config](const util::FieldVec& row, RasEvent& e) {
        parse_csv_row(row, config, e);
      },
      options));
}

void RasLog::for_each_csv(const std::string& path,
                          const topology::MachineConfig& config,
                          const std::function<bool(const RasEvent&)>& callback) {
  FAILMINE_TRACE_SPAN("raslog.read_csv");
  RasEvent e;
  ingest::for_each_csv(
      path, ras_csv_header(), "raslog", "RAS log", "parse.raslog.records",
      [&](const util::FieldVec& row) { parse_csv_row(row, config, e); },
      [&] { return callback(e); });
}

}  // namespace failmine::raslog
