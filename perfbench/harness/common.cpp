#include "common.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

double cpu_seconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_seconds() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

PinnedToCpu::PinnedToCpu(std::size_t rep) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int skip = static_cast<int>(rep % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

namespace {

/// 64 KiB of comma-separated decimal fields, fixed (not derived from the
/// seed) and built once.
const std::string& reference_text() {
  static const std::string text = [] {
    std::string t;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    while (t.size() < (std::size_t{1} << 16)) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      t += std::to_string(x % 100000000);
      t += (x >> 40) % 8 == 0 ? '\n' : ',';
    }
    return t;
  }();
  return text;
}

/// The reference kernel: eight passes that parse the text's fields, hash
/// them and count the hashes in a 4096-entry table. Returns a checksum so
/// none of it is elided.
std::uint64_t reference_kernel() {
  static std::uint32_t table[1 << 12];
  std::fill(std::begin(table), std::end(table), 0u);
  constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  std::uint64_t sum = 0;
  for (int pass = 0; pass < 8; ++pass) {
    std::uint64_t value = 0, hash = kFnvBasis;
    for (const char c : reference_text()) {
      if (c >= '0' && c <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        hash = (hash ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
        continue;
      }
      ++table[(hash ^ value) & ((1u << 12) - 1)];
      sum += value;
      value = 0;
      hash = kFnvBasis;
    }
  }
  return sum + table[sum & ((1u << 12) - 1)];
}

/// Median CPU seconds of three kernel runs on the calling thread.
double reference_this_cpu() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    const double t0 = thread_cpu_seconds();
    sink = sink + reference_kernel();
    runs.push_back(thread_cpu_seconds() - t0);
  }
  return median(std::move(runs));
}

}  // namespace

SpeedProbe::SpeedProbe() : before_s_(reference_this_cpu()) {}

void SpeedProbe::finish() { after_s_ = reference_this_cpu(); }

double SpeedProbe::reference_s() const { return 0.5 * (before_s_ + after_s_); }

std::vector<double> Samples::nominal_cpu_s() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < cpu_s.size(); ++i)
    out.push_back(cpu_s[i] * kNominalReferenceS / reference_s[i]);
  return out;
}

void reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident size (proc(5)).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name)
    : log_(&log), name_(name), start_(Clock::now()) {}

SpanLog::Scope::~Scope() {
  if (!log_->enabled_) return;
  const auto end = Clock::now();
  using us = std::chrono::duration<double, std::micro>;
  log_->records_.push_back({name_, us(start_ - log_->epoch_).count(),
                            us(end - start_).count()});
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const auto& r : records_)
    if (name == r.name) out.push_back(r.dur_us);
  return out;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.start_us
        << ",\"dur\":" << r.dur_us << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

double span_us(std::string_view name) {
  return median(spans().durations_us(name));
}
double span_ms(std::string_view name) { return span_us(name) / 1000.0; }

void Report::op(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::config(std::string key, double value) {
  config_.emplace_back(std::move(key), value);
}

namespace {

/// Shortest round-trip spelling; JSON has no NaN/Inf, so those become
/// null, which a consumer expecting a number rejects loudly.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

int Report::print() const {
  for (const auto& m : metrics_)
    std::printf("%-34s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  const double ratio = attempted_ == 0 ? 1.0
                                       : static_cast<double>(failed_) /
                                             static_cast<double>(attempted_);
  std::printf("%-34s %s (%llu failed / %llu attempted)\n", "failed_ops_ratio",
              number(ratio).c_str(), static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  std::ostringstream config;
  config << "{";
  for (std::size_t i = 0; i < config_.size(); ++i)
    config << (i ? "," : "") << "\"" << config_[i].first
           << "\":" << number(config_[i].second);
  config << "}";
  std::printf("config %s\n", config.str().c_str());

  const bool correct = failed_ == 0 && attempted_ > 0;
  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << std::max<std::uint64_t>(attempted_, 1)
       << ",\"failed\":" << (attempted_ == 0 ? 1 : failed_)
       << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    json << (i ? "," : "") << "\"" << metrics_[i].name
         << "\":{\"value\":" << number(metrics_[i].value) << ",\"unit\":\""
         << metrics_[i].unit << "\"}";
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
