// Executes a ScenarioSpec: expands it into independent (config, seed) points,
// runs them on a worker pool (each Experiment owns its own Simulator/Network,
// so points are embarrassingly parallel), and merges results in deterministic
// spec order — output is byte-identical at any worker count.

#ifndef HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_
#define HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/config_knob.h"
#include "runtime/scenario.h"

namespace hotstuff1 {

enum class ReportFormat { kTable = 0, kCsv = 1, kJson = 2 };

/// Parses "table" / "csv" / "json"; returns false on anything else.
bool ParseReportFormat(const std::string& s, ReportFormat* out);

struct ScenarioRunOptions {
  int jobs = 1;          // worker threads across points (clamped to the count)
  // Knob values forced onto every point (--sim-jobs, --oracle, ...: the
  // table's forcible rows), under the respect-the-axis rule of SweepRunner.
  std::vector<KnobSetting> forced;
  bool smoke = false;    // CI-sized points, endpoint-subsampled axes
  // Reruns the scenario this many times and reports *median* wall-clock
  // metrics (--repeat). Deterministic metrics are byte-identical across the
  // reruns by contract, so only wall_ms-derived values change; medians make
  // BENCH ledgers stable enough to gate on.
  int repeat = 1;
  // When non-empty, perf scenarios (throughput) additionally write their
  // machine-readable ledger to this path (--bench-json). Sweep scenarios
  // ignore it.
  std::string bench_json;
  ReportFormat format = ReportFormat::kTable;
  std::ostream* out = nullptr;  // default std::cout
};

/// A completed sweep: points and index-aligned results.
struct SweepOutcome {
  const ScenarioSpec* spec = nullptr;
  std::vector<SweepPoint> points;
  std::vector<ExperimentResult> results;
  /// True when the results were synthesized rather than produced by
  /// experiments (micro's wall-clock points). The machine emitters then
  /// omit the experiment diagnostic columns (safety_ok, oracle_violations,
  /// ...) instead of fabricating verdicts for runs that never happened.
  bool synthetic = false;

  bool AllSafe() const;
  bool AnyCapHit() const;
  /// Any point silently fell back to tick-parallel because an event cap was
  /// set under --sim-jobs > 1 (ExperimentResult::cap_parallelism_degraded).
  bool AnyCapDegraded() const;
  /// Sum of invariant-oracle violations across points (0 when disabled).
  uint64_t TotalOracleViolations() const;
  /// First oracle diagnostic in spec order; empty when clean.
  std::string FirstOracleDiagnostic() const;
  /// Liveness-oracle counterparts of the two above.
  uint64_t TotalLivenessViolations() const;
  std::string FirstLivenessDiagnostic() const;
};

/// \brief Parallel executor for scenario sweeps.
///
/// Two orthogonal axes of parallelism compose here: `jobs` worker threads
/// each run whole (config, seed) points (every Experiment owns its own
/// Simulator/Network, so points never share state), while a forced
/// `sim-jobs` knob sets the threads *inside* each point's event loop. Both
/// are determinism-preserving: merged output is byte-identical at any
/// (jobs, sim-jobs) combination.
///
/// Forced knobs follow the respect-the-axis rule: a scenario whose points
/// disagree with its base config on a knob (ConfigKnob::same) sweeps that
/// knob, and forcing it would silently relabel the rows, so the scenario
/// keeps its own values; every other scenario gets the forced value.
class SweepRunner {
 public:
  /// Every setting must name a forcible knob with a value its parser accepts.
  explicit SweepRunner(int jobs, std::vector<KnobSetting> forced = {})
      : jobs_(jobs < 1 ? 1 : jobs), forced_(std::move(forced)) {}

  /// The expanded points of `spec`, forced knobs applied.
  std::vector<SweepPoint> Points(const ScenarioSpec& spec, bool smoke = false) const;

  /// Runs every point of `spec` and returns merged results.
  SweepOutcome Run(const ScenarioSpec& spec, bool smoke = false) const;

 private:
  int jobs_;
  std::vector<KnobSetting> forced_;
};

// Emitters over a merged outcome. All iterate points in spec order, so the
// bytes written are independent of the worker count that produced them.
void EmitTables(const SweepOutcome& outcome, std::ostream& os);
void EmitCsv(const SweepOutcome& outcome, std::ostream& os);
void EmitJson(const SweepOutcome& outcome, std::ostream& os);

/// Runs one registered scenario end to end (sweep or custom) and writes the
/// requested format. Returns a process exit code (0 ok, 1 safety violation).
int RunScenario(const ScenarioSpec& spec, const ScenarioRunOptions& options);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_SWEEP_RUNNER_H_
