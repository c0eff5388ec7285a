#include "runtime/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "runtime/report.h"

namespace hotstuff1 {

bool ParseReportFormat(const std::string& s, ReportFormat* out) {
  if (s == "table") *out = ReportFormat::kTable;
  else if (s == "csv") *out = ReportFormat::kCsv;
  else if (s == "json") *out = ReportFormat::kJson;
  else return false;
  return true;
}

bool SweepOutcome::AllSafe() const {
  for (const ExperimentResult& r : results) {
    if (!r.safety_ok) return false;
  }
  return true;
}

bool SweepOutcome::AnyCapHit() const {
  for (const ExperimentResult& r : results) {
    if (r.event_cap_hit) return true;
  }
  return false;
}

bool SweepOutcome::AnyCapDegraded() const {
  for (const ExperimentResult& r : results) {
    if (r.cap_parallelism_degraded) return true;
  }
  return false;
}

uint64_t SweepOutcome::TotalOracleViolations() const {
  uint64_t total = 0;
  for (const ExperimentResult& r : results) total += r.oracle_violations;
  return total;
}

std::string SweepOutcome::FirstOracleDiagnostic() const {
  for (const ExperimentResult& r : results) {
    if (!r.oracle_first_violation.empty()) return r.oracle_first_violation;
  }
  return {};
}

uint64_t SweepOutcome::TotalLivenessViolations() const {
  uint64_t total = 0;
  for (const ExperimentResult& r : results) total += r.liveness_violations;
  return total;
}

std::string SweepOutcome::FirstLivenessDiagnostic() const {
  for (const ExperimentResult& r : results) {
    if (!r.liveness_first_violation.empty()) return r.liveness_first_violation;
  }
  return {};
}

std::vector<SweepPoint> SweepRunner::Points(const ScenarioSpec& spec,
                                            bool smoke) const {
  std::vector<SweepPoint> points = ExpandScenario(spec, smoke);
  for (const KnobSetting& setting : forced_) {
    const ConfigKnob* knob = FindKnob(setting.flag);
    HS1_CHECK(knob != nullptr && knob->forcible) << setting.flag;
    const bool swept = std::any_of(points.begin(), points.end(), [&](const SweepPoint& p) {
      return !knob->same(p.config, spec.base);
    });
    if (swept) continue;
    for (SweepPoint& p : points) {
      HS1_CHECK(knob->parse(setting.value, &p.config, nullptr)) << setting.value;
    }
  }
  return points;
}

SweepOutcome SweepRunner::Run(const ScenarioSpec& spec, bool smoke) const {
  SweepOutcome outcome;
  outcome.spec = &spec;
  outcome.points = Points(spec, smoke);
  outcome.results.resize(outcome.points.size());

  auto run_point = [&](size_t i) {
    const SweepPoint& p = outcome.points[i];
    outcome.results[i] = p.mode == RunMode::kPaperPoint ? RunPaperPoint(p.config)
                                                        : RunExperiment(p.config);
  };

  const size_t total = outcome.points.size();
  const size_t workers = std::min<size_t>(static_cast<size_t>(jobs_), total);
  if (workers <= 1) {
    for (size_t i = 0; i < total; ++i) run_point(i);
    return outcome;
  }

  // Points are independent (each Experiment owns its simulator); workers pull
  // indices from a shared counter and write into their own result slot, so
  // the merged vector is in spec order regardless of completion order.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        run_point(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return outcome;
}

namespace {

// First-appearance-ordered unique labels along one point field.
std::vector<std::string> UniqueLabels(const std::vector<SweepPoint>& points,
                                      std::string SweepPoint::*field) {
  std::vector<std::string> labels;
  for (const SweepPoint& p : points) {
    const std::string& l = p.*field;
    if (std::find(labels.begin(), labels.end(), l) == labels.end()) labels.push_back(l);
  }
  return labels;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Diagnostics appended to every machine-readable row.
struct DiagColumn {
  const char* name;
  std::function<std::string(const ExperimentResult&)> value;
};

std::vector<DiagColumn> DiagColumns(const std::vector<MetricSpec>& metrics) {
  std::vector<DiagColumn> all = {
      {"accepted", [](const ExperimentResult& r) { return std::to_string(r.accepted); }},
      {"views", [](const ExperimentResult& r) { return std::to_string(r.views); }},
      {"timeouts", [](const ExperimentResult& r) { return std::to_string(r.timeouts); }},
      {"resubmissions",
       [](const ExperimentResult& r) { return std::to_string(r.resubmissions); }},
      {"backlog", [](const ExperimentResult& r) { return std::to_string(r.backlog); }},
      {"rollback_events",
       [](const ExperimentResult& r) { return std::to_string(r.rollback_events); }},
      {"safety_ok", [](const ExperimentResult& r) { return r.safety_ok ? "1" : "0"; }},
      {"event_cap_hit",
       [](const ExperimentResult& r) { return r.event_cap_hit ? "1" : "0"; }},
      // liveness_violations sits BEFORE oracle_violations: CI awk gates
      // address oracle_violations as the last field ($NF).
      {"liveness_violations",
       [](const ExperimentResult& r) {
         return std::to_string(r.liveness_violations);
       }},
      {"oracle_violations",
       [](const ExperimentResult& r) { return std::to_string(r.oracle_violations); }},
  };
  // A scenario metric with the same name (e.g. ablation's "views") already
  // carries the value; drop the diagnostic duplicate.
  std::vector<DiagColumn> kept;
  for (DiagColumn& d : all) {
    const bool shadowed =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const MetricSpec& m) { return m.name == d.name; });
    if (!shadowed) kept.push_back(std::move(d));
  }
  return kept;
}

}  // namespace

void EmitTables(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<std::string> tables =
      UniqueLabels(outcome.points, &SweepPoint::table_label);
  const std::vector<std::string> rows =
      UniqueLabels(outcome.points, &SweepPoint::row_label);
  const std::vector<std::string> cols =
      UniqueLabels(outcome.points, &SweepPoint::col_label);

  // Per-seed samples per (table, row, col, metric); cells report the mean
  // and, with multiple seeds, the sample stddev ("mean ±sd"). Points are
  // visited in spec order, so the statistics — like every emitter — are
  // byte-identical at any worker count.
  std::map<std::tuple<std::string, std::string, std::string, size_t>,
           std::vector<double>>
      acc;
  bool multi_seed = false;
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    for (size_t m = 0; m < spec.metrics.size(); ++m) {
      auto& samples = acc[{p.table_label, p.row_label, p.col_label, m}];
      samples.push_back(spec.metrics[m].value(outcome.results[i]));
      multi_seed = multi_seed || samples.size() > 1;
    }
  }

  for (const std::string& table : tables) {
    for (size_t m = 0; m < spec.metrics.size(); ++m) {
      std::string caption = spec.title;
      if (!table.empty()) {
        caption += " [" + (spec.table_name.empty() ? std::string("axis")
                                                   : spec.table_name) +
                   "=" + table + "]";
      }
      caption += " - " + spec.metrics[m].name;
      std::vector<std::string> header{spec.row_name};
      header.insert(header.end(), cols.begin(), cols.end());
      ReportTable report(caption, header);
      for (const std::string& row : rows) {
        std::vector<std::string> cells{row};
        for (const std::string& col : cols) {
          const SampleStats s = ComputeStats(acc[{table, row, col, m}]);
          if (s.count == 0) {
            cells.push_back("-");
          } else if (s.count == 1) {
            cells.push_back(spec.metrics[m].format(s.mean));
          } else {
            cells.push_back(spec.metrics[m].format(s.mean) + " ±" +
                            spec.metrics[m].format(s.stddev));
          }
        }
        report.AddRow(std::move(cells));
      }
      report.Print(os);
    }
  }
  if (multi_seed) {
    os << "(± = sample stddev over seeds; 95% CI half-width = 1.96*sd/sqrt(k))\n";
  }
  // Truncation is never silent: name the points whose simulator stopped at
  // its event cap (also visible as the event_cap_hit CSV/JSON column).
  size_t capped = 0;
  for (const ExperimentResult& r : outcome.results) capped += r.event_cap_hit ? 1 : 0;
  if (capped > 0) {
    os << "WARNING: " << capped << " of " << outcome.results.size()
       << " points hit the simulator event cap - their results are truncated:\n";
    size_t listed = 0;
    for (size_t i = 0; i < outcome.points.size() && listed < 8; ++i) {
      if (!outcome.results[i].event_cap_hit) continue;
      const SweepPoint& p = outcome.points[i];
      os << "  [" << (p.table_label.empty() ? "-" : p.table_label) << " | "
         << (p.row_label.empty() ? "-" : p.row_label) << " | "
         << (p.col_label.empty() ? "-" : p.col_label) << " | seed " << p.seed
         << "]\n";
      ++listed;
    }
    if (capped > listed) os << "  ... and " << (capped - listed) << " more\n";
  }
  // Degraded parallelism is also never silent: an event cap pins the
  // parallel executor to tick-parallel scheduling, so --sim-jobs > 1 with a
  // cap runs slower than the flag suggests.
  size_t degraded = 0;
  for (const ExperimentResult& r : outcome.results) {
    degraded += r.cap_parallelism_degraded ? 1 : 0;
  }
  if (degraded > 0) {
    os << "NOTE: " << degraded << " of " << outcome.results.size()
       << " points ran with an event cap under --sim-jobs > 1; windowed "
          "lookahead is disabled while a cap is set, so those points fell "
          "back to tick-parallel scheduling (cap_parallelism_degraded)\n";
  }
  if (!spec.table_note.empty()) os << spec.table_note << "\n";
}

void EmitCsv(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<DiagColumn> diags =
      outcome.synthetic ? std::vector<DiagColumn>{} : DiagColumns(spec.metrics);
  os << "scenario,table,row,col,seed";
  // Nondeterministic metrics (wall_ms) are table-only: the machine-readable
  // bytes must be identical across repeated runs for the CI diff gates.
  for (const MetricSpec& m : spec.metrics) {
    if (m.deterministic) os << "," << CsvEscape(m.name);
  }
  for (const DiagColumn& d : diags) os << "," << d.name;
  os << "\n";
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    const ExperimentResult& r = outcome.results[i];
    os << CsvEscape(spec.name) << "," << CsvEscape(p.table_label) << ","
       << CsvEscape(p.row_label) << "," << CsvEscape(p.col_label) << "," << p.seed;
    for (const MetricSpec& m : spec.metrics) {
      if (m.deterministic) os << "," << FormatDouble(m.value(r));
    }
    for (const DiagColumn& d : diags) os << "," << d.value(r);
    os << "\n";
  }
  os.flush();
}

void EmitJson(const SweepOutcome& outcome, std::ostream& os) {
  const ScenarioSpec& spec = *outcome.spec;
  const std::vector<DiagColumn> diags =
      outcome.synthetic ? std::vector<DiagColumn>{} : DiagColumns(spec.metrics);
  os << "{\"scenario\":\"" << JsonEscape(spec.name) << "\",\"points\":[";
  for (size_t i = 0; i < outcome.points.size(); ++i) {
    const SweepPoint& p = outcome.points[i];
    const ExperimentResult& r = outcome.results[i];
    os << (i == 0 ? "" : ",") << "\n  {\"table\":\"" << JsonEscape(p.table_label)
       << "\",\"row\":\"" << JsonEscape(p.row_label) << "\",\"col\":\""
       << JsonEscape(p.col_label) << "\",\"seed\":" << p.seed;
    for (const MetricSpec& m : spec.metrics) {
      if (!m.deterministic) continue;  // see EmitCsv
      os << ",\"" << JsonEscape(m.name) << "\":" << FormatDouble(m.value(r));
    }
    for (const DiagColumn& d : diags) os << ",\"" << d.name << "\":" << d.value(r);
    os << "}";
  }
  os << "\n]}\n";
  os.flush();
}

int RunScenario(const ScenarioSpec& spec, const ScenarioRunOptions& options) {
  std::ostream& os = options.out ? *options.out : std::cout;
  if (spec.custom_run) return spec.custom_run(options);

  const SweepRunner runner(options.jobs, options.forced);
  SweepOutcome outcome = runner.Run(spec, options.smoke);
  if (options.repeat > 1) {
    // Rerun and keep the per-point *median* wall-clock time. Every
    // deterministic field is byte-identical across reruns by contract, so
    // only wall_ms (table-only) changes — but it changes from a noisy single
    // sample to a gateable median.
    std::vector<std::vector<double>> walls(outcome.results.size());
    for (size_t i = 0; i < outcome.results.size(); ++i) {
      walls[i].push_back(outcome.results[i].wall_ms);
    }
    for (int rep = 1; rep < options.repeat; ++rep) {
      const SweepOutcome again = runner.Run(spec, options.smoke);
      for (size_t i = 0; i < again.results.size(); ++i) {
        walls[i].push_back(again.results[i].wall_ms);
      }
    }
    for (size_t i = 0; i < outcome.results.size(); ++i) {
      std::sort(walls[i].begin(), walls[i].end());
      outcome.results[i].wall_ms = walls[i][walls[i].size() / 2];
    }
  }
  switch (options.format) {
    case ReportFormat::kTable: EmitTables(outcome, os); break;
    case ReportFormat::kCsv: EmitCsv(outcome, os); break;
    case ReportFormat::kJson: EmitJson(outcome, os); break;
  }
  if (outcome.AnyCapHit()) {
    std::cerr << "warning: scenario '" << spec.name
              << "' hit the simulator event cap; results are truncated\n";
  }
  if (outcome.AnyCapDegraded()) {
    std::cerr << "warning: scenario '" << spec.name
              << "' ran capped points with --sim-jobs > 1; windowed lookahead "
                 "was disabled for them (cap_parallelism_degraded)\n";
  }
  // A scenario whose points *expect* violations judges itself: the exit code
  // comes from its point_judge, not the blanket any-violation-fails rule.
  if (spec.point_judge) {
    int code = 0;
    for (size_t i = 0; i < outcome.points.size(); ++i) {
      if (spec.point_judge(outcome.points[i], outcome.results[i])) continue;
      const SweepPoint& p = outcome.points[i];
      std::cerr << "JUDGE FAILED in scenario '" << spec.name << "': point ["
                << (p.table_label.empty() ? "-" : p.table_label) << " | "
                << (p.row_label.empty() ? "-" : p.row_label) << " | "
                << (p.col_label.empty() ? "-" : p.col_label) << " | seed "
                << p.seed << "] did not behave as the scenario expects\n";
      code = 1;
    }
    return code;
  }
  int code = 0;
  if (const uint64_t v = outcome.TotalOracleViolations(); v > 0) {
    std::cerr << "ORACLE VIOLATION in scenario '" << spec.name << "' (" << v
              << " total): " << outcome.FirstOracleDiagnostic() << "\n";
    code = 1;
  }
  if (const uint64_t v = outcome.TotalLivenessViolations(); v > 0) {
    std::cerr << "LIVENESS VIOLATION in scenario '" << spec.name << "' (" << v
              << " total): " << outcome.FirstLivenessDiagnostic() << "\n";
    code = 1;
  }
  if (!outcome.AllSafe()) {
    std::cerr << "SAFETY VIOLATION in scenario '" << spec.name << "'\n";
    code = 1;
  }
  return code;
}

}  // namespace hotstuff1
