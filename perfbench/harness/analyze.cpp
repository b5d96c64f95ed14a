// AnalyzePath: set-up loads the dataset into both backends; each
// repetition runs the full takeaway report (`failmine_cli report`) and
// then four passes of the five-query mix both QueryEngine backends
// implement (E01 summary, E02 exit breakdown, E03 per-user and
// per-project stats, E06 RAS breakdown, E11 hourly profiles). core,
// analysis, distfit and the columnar kernels do all the work; ingest does
// none, so this path is the bypass for every ingest change.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/io_behavior.hpp"
#include "analysis/locality.hpp"
#include "analysis/structure.hpp"
#include "columnar/engine.hpp"
#include "distfit/selection.hpp"
#include "paths.hpp"

namespace perfbench {
namespace {

using namespace failmine;

constexpr int kQueryPassesPerReport = 4;

struct QueryMix {
  core::DatasetSummary e01;
  core::ExitBreakdown e02;
  std::vector<analysis::GroupStats> e03_users;
  std::vector<analysis::GroupStats> e03_projects;
  analysis::RasBreakdown e06;
  analysis::HourlyProfile e11_submissions{};
  analysis::HourlyProfile e11_failures{};
  analysis::HourlyProfile e11_events{};
};

/// Span names of one backend's queries (string literals: spans keep the
/// pointer).
struct QueryNames {
  const char* e01;
  const char* e02;
  const char* e03;
  const char* e06;
  const char* e11;
};
constexpr QueryNames kRowNames = {"query.e01.row", "query.e02.row",
                                  "query.e03.row", "query.e06.row",
                                  "query.e11.row"};
constexpr QueryNames kColumnarNames = {
    "query.e01.columnar", "query.e02.columnar", "query.e03.columnar",
    "query.e06.columnar", "query.e11.columnar"};

QueryMix run_mix(const columnar::QueryEngine& q, const QueryNames& names) {
  QueryMix m;
  {
    auto s = spans().scope(names.e01);
    m.e01 = q.dataset_summary();
  }
  {
    auto s = spans().scope(names.e02);
    m.e02 = q.exit_breakdown();
  }
  {
    auto s = spans().scope(names.e03);
    m.e03_users = q.per_user_stats();
    m.e03_projects = q.per_project_stats();
  }
  {
    auto s = spans().scope(names.e06);
    m.e06 = q.ras_breakdown();
  }
  auto s = spans().scope(names.e11);
  m.e11_submissions = q.submissions_by_hour();
  m.e11_failures = q.failures_by_hour();
  m.e11_events = q.events_by_hour();
  return m;
}

bool identical(const std::vector<analysis::GroupStats>& a,
               const std::vector<analysis::GroupStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].group_id != b[i].group_id || a[i].jobs != b[i].jobs ||
        a[i].failures != b[i].failures ||
        a[i].user_caused_failures != b[i].user_caused_failures ||
        a[i].system_caused_failures != b[i].system_caused_failures ||
        !same_bits(a[i].core_hours, b[i].core_hours) ||
        !same_bits(a[i].failed_core_hours, b[i].failed_core_hours))
      return false;
  }
  return true;
}

bool identical(const core::ExitBreakdown& a, const core::ExitBreakdown& b) {
  if (a.rows.size() != b.rows.size() || a.total_jobs != b.total_jobs ||
      a.total_failures != b.total_failures ||
      !same_bits(a.user_caused_share, b.user_caused_share) ||
      !same_bits(a.system_caused_share, b.system_caused_share))
    return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.exit_class != y.exit_class || x.jobs != y.jobs ||
        !same_bits(x.core_hours, y.core_hours) ||
        !same_bits(x.share_of_jobs, y.share_of_jobs) ||
        !same_bits(x.share_of_failures, y.share_of_failures))
      return false;
  }
  return true;
}

/// Every row query equals its columnar twin bit for bit (the columnar
/// parity contract).
bool identical(const QueryMix& a, const QueryMix& b) {
  return perfbench::identical(a.e01, b.e01) && identical(a.e02, b.e02) &&
         identical(a.e03_users, b.e03_users) &&
         identical(a.e03_projects, b.e03_projects) &&
         a.e06.total_events == b.e06.total_events &&
         a.e06.by_severity == b.e06.by_severity &&
         a.e06.by_component == b.e06.by_component &&
         a.e06.by_category == b.e06.by_category &&
         a.e11_submissions == b.e11_submissions &&
         a.e11_failures == b.e11_failures && a.e11_events == b.e11_events;
}

bool identical(const std::vector<core::Takeaway>& a,
               const std::vector<core::Takeaway>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].pass != b[i].pass ||
        !same_bits(a[i].measured, b[i].measured) ||
        !same_bits(a[i].expected, b[i].expected))
      return false;
  }
  return true;
}

/// The report's heavy analyses, each timed on its own.
void analysis_layers(const sim::SimResult& d, Report& report) {
  const auto machine = topology::MachineConfig::mira();
  const core::JointAnalyzer a(d.job_log, d.task_log, d.ras_log, d.io_log,
                              machine);
  const core::FilterConfig filter;
  std::size_t sink = 0;
  const double interruption_analysis_s = median_seconds_per(1, [&] {
    sink += a.interruption_analysis(filter).filter.clusters.size();
  });
  report.metric("core.interruption_analysis_ms",
                interruption_analysis_s * 1e3, "ms");
  const double ras_user_correlations_s = median_seconds_per(1, [&] {
    sink += a.ras_user_correlations().users;
  });
  report.metric("core.ras_user_correlations_ms",
                ras_user_correlations_s * 1e3, "ms");
  const double runtime_distribution_study_s = median_seconds_per(1, [&] {
    sink += a.runtime_distribution_study().size();
  });
  report.metric("core.runtime_distribution_study_ms",
                runtime_distribution_study_s * 1e3, "ms");
  const double interruption_interval_fit_s = median_seconds_per(1, [&] {
    sink += a.interruption_interval_fit(filter).sample_size;
  });
  report.metric("core.interruption_interval_fit_ms",
                interruption_interval_fit_s * 1e3, "ms");
  const double locality_s = median_seconds_per(1, [&] {
    sink += analysis::locality_summary(d.ras_log, machine,
                                       topology::Level::kMidplane)
                .components_hit;
  });
  report.metric("analysis.locality_ms", locality_s * 1e3, "ms");
  const double structure_s = median_seconds_per(1, [&] {
    sink += analysis::failure_rate_by_scale(d.job_log).size();
  });
  report.metric("analysis.structure_ms", structure_s * 1e3, "ms");
  const double io_behavior_s = median_seconds_per(1, [&] {
    sink += analysis::compare_io(d.job_log, d.io_log).failed.jobs_total;
  });
  report.metric("analysis.io_behavior_ms", io_behavior_s * 1e3, "ms");
  std::vector<double> runtimes;
  for (const auto& job : d.job_log.jobs())
    if (job.failed() && job.runtime_seconds() > 0)
      runtimes.push_back(static_cast<double>(job.runtime_seconds()));
  const double fit_all_s = median_seconds_per(1, [&] {
    sink += distfit::fit_all(runtimes).size();
  });
  report.metric("distfit.fit_all_ms", fit_all_s * 1e3, "ms");
  report.op(sink != 0, "analysis layers produced no output");
}

}  // namespace

std::vector<core::Takeaway> evaluate_report(const sim::SimResult& d,
                                            double scale) {
  const core::JointAnalyzer analyzer(d.job_log, d.task_log, d.ras_log,
                                     d.io_log,
                                     topology::MachineConfig::mira());
  core::ReportConfig rc;
  rc.trace_scale = scale;
  return core::evaluate_takeaways(analyzer, rc);
}

struct AnalyzePath::Engines {
  columnar::QueryEngine row;
  columnar::QueryEngine columnar;
};

AnalyzePath::AnalyzePath(const Options& options, const Inputs& in)
    : options_(options), in_(in) {
  const auto machine = topology::MachineConfig::mira();
  engines_ = std::make_unique<Engines>(Engines{
      columnar::QueryEngine(in.rows.job_log, in.rows.task_log,
                            in.rows.ras_log, in.rows.io_log, machine),
      columnar::QueryEngine(in.columns, machine)});
}

AnalyzePath::~AnalyzePath() = default;

void AnalyzePath::round(const Rep& rep, Report& report) {
  const PinnedToCpu pin(rep.index);  // the report and queries start no thread
  SpeedProbe probe;
  const Stopwatch watch;
  const auto result = evaluate_report(in_.rows, options_.scale);
  const std::string text = core::format_report(result);
  const double wall = watch.wall_s(), cpu = watch.cpu_s();
  probe.finish();
  if (!rep.warmup) report_.add(wall, cpu, probe);
  bool finite = !text.empty();
  for (const auto& t : result) finite = finite && std::isfinite(t.measured);
  report.op(finite && identical(result, in_.report_reference),
            "report differs from the columnar round-trip reference");

  for (int pass = 0; pass < kQueryPassesPerReport; ++pass) {
    const Stopwatch row_watch;
    const QueryMix row = run_mix(engines_->row, kRowNames);
    if (!rep.warmup) row_.add(row_watch);
    SpeedProbe probe_columnar;
    const Stopwatch columnar_watch;
    const QueryMix col = run_mix(engines_->columnar, kColumnarNames);
    const double columnar_wall = columnar_watch.wall_s(),
                 columnar_cpu = columnar_watch.cpu_s();
    probe_columnar.finish();
    if (!rep.warmup) columnar_.add(columnar_wall, columnar_cpu, probe_columnar);
    report.op(identical(row, col), "row query mix != columnar twin");
  }
}

void AnalyzePath::metrics(Report& report) const {
  report.metric("report_nominal_cpu_s", median(report_.nominal_cpu_s()), "s");
  report.metric("query_row_cpu_ms", median(row_.cpu_s) * 1e3, "ms");
  report.metric("query_columnar_nominal_cpu_ms",
                median(columnar_.nominal_cpu_s()) * 1e3, "ms");
}

void AnalyzePath::layers(Report& report) {
  report.metric("wall.report_s", median(report_.wall_s), "s");
  report.metric("wall.query_row_ms", median(row_.wall_s) * 1e3, "ms");
  report.metric("wall.query_columnar_ms", median(columnar_.wall_s) * 1e3, "ms");
  report.metric("cpu.report_s", median(report_.cpu_s), "s");
  report.metric("cpu.query_columnar_ms", median(columnar_.cpu_s) * 1e3, "ms");
  std::vector<double> reference = report_.reference_s;
  reference.insert(reference.end(), columnar_.reference_s.begin(),
                   columnar_.reference_s.end());
  report.metric("host.reference_us", median(std::move(reference)) * 1e6, "us");
  std::size_t passed = 0;
  for (const auto& t : in_.report_reference) passed += t.pass ? 1 : 0;
  report.metric("core.takeaways_passed", static_cast<double>(passed), "count");
  for (const auto* names : {&kRowNames, &kColumnarNames}) {
    for (const char* name :
         {names->e01, names->e02, names->e03, names->e06, names->e11})
      report.metric(std::string(name) + "_us", span_us(name), "us");
  }
  analysis_layers(in_.rows, report);
}

}  // namespace perfbench
