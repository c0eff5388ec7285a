// The command line of both tools, one path: the flag tokenizer, strict
// run-option readers, the knob-table glue that parses experiment knobs and
// renders their --help, the --list catalog, and the scenario runner command
// that hs1bench runs and hs1sim --scenario reaches. Every malformed flag is a
// message naming it, and the binaries exit 2.

#ifndef HOTSTUFF1_TOOLS_CLI_H_
#define HOTSTUFF1_TOOLS_CLI_H_

#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "runtime/config_knob.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"

namespace hotstuff1::tools {

/// Parses `--key=value` and `--flag` (value "true") arguments; everything
/// else is a positional argument. A repeated key keeps its last value.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          values_[arg.substr(2)] = "true";
        } else {
          values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// The value of --key, marking the flag as consumed; nullptr when absent.
  const std::string* Take(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    taken_.insert(key);
    return &it->second;
  }

  /// Fails, naming each flag no reader took. A knob that exists but does
  /// not apply in this mode says so; anything else is unknown.
  bool RejectUntaken(const char* mode) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> taken_;
  std::vector<std::string> positional_;
};

/// Prints "--<flag>: <message>" to stderr. Returns false.
inline bool FlagError(const std::string& flag, const std::string& message) {
  std::fprintf(stderr, "--%s: %s\n", flag.c_str(), message.c_str());
  return false;
}

/// Strict switch; *out is false when the flag is absent.
inline bool TakeSwitch(Flags& flags, const std::string& key, bool* out) {
  *out = false;
  const std::string* v = flags.Take(key);
  return v == nullptr || ParseBool(*v, out) ||
         FlagError(key, "'" + *v + "' is not true|false");
}

/// Strict integer >= lo; *out keeps its value when the flag is absent.
inline bool TakeCount(Flags& flags, const std::string& key, int64_t lo, int* out) {
  const std::string* v = flags.Take(key);
  if (v == nullptr) return true;
  int64_t n = 0;
  if (!ParseNumber(*v, &n) || n < lo || n > std::numeric_limits<int>::max()) {
    return FlagError(key, "'" + *v + "' is not an integer >= " + std::to_string(lo));
  }
  *out = static_cast<int>(n);
  return true;
}

/// Parses every knob flag present (forcible ones only when `forcible_only`)
/// into `cfg`, in table order, and lists each one in `applied` if given.
inline bool ApplyKnobFlags(Flags& flags, bool forcible_only, ExperimentConfig* cfg,
                           std::vector<KnobSetting>* applied = nullptr) {
  for (const ConfigKnob& knob : ConfigKnobs()) {
    const std::string* v = forcible_only && !knob.forcible ? nullptr : flags.Take(knob.flag);
    if (v == nullptr) continue;
    std::string error;
    if (!knob.parse(*v, cfg, &error)) return FlagError(knob.flag, error);
    if (applied != nullptr) applied->push_back({knob.flag, *v});
  }
  return true;
}

inline bool Flags::RejectUntaken(const char* mode) const {
  bool ok = true;
  for (const auto& [key, value] : values_) {
    if (taken_.count(key) > 0) continue;
    ok = FlagError(key, FindKnob(key) != nullptr ? std::string("does not apply to ") + mode
                                                 : "unknown flag (see --help)");
  }
  return ok;
}

/// One --help entry per knob (forcible ones only when `forcible_only`):
/// flag and placeholder, help text, and, given `defaults`, the formatted
/// default value.
inline std::string KnobUsage(bool forcible_only, const ExperimentConfig* defaults) {
  constexpr size_t kHelpColumn = 32, kWidth = 80;
  const std::string indent(kHelpColumn, ' ');
  std::string out;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (forcible_only && !knob.forcible) continue;
    std::string line = "  --" + knob.flag + (knob.arg.empty() ? "" : "=" + knob.arg);
    line += line.size() < kHelpColumn ? std::string(kHelpColumn - line.size(), ' ')
                                      : "\n" + indent;
    std::string help = knob.help;
    const std::string value = defaults ? knob.format(*defaults) : "";
    if (!value.empty()) {
      const size_t last = help.rfind('\n') + 1;  // npos + 1 == 0
      const bool fits = kHelpColumn + help.size() - last + value.size() + 11 < kWidth;
      help += (help.empty() ? "" : fits ? " " : "\n") + ("(default " + value + ")");
    }
    for (size_t start = 0, nl = 0; nl != std::string::npos; start = nl + 1) {
      nl = help.find('\n', start);
      line += (start > 0 ? indent : "") + help.substr(start, nl - start) + "\n";
    }
    out += line;
  }
  return out;
}

/// One axis rendered as `name{label1,label2,...}` (long axes elided), so
/// --list shows exactly what a scenario sweeps — including sim_jobs /
/// lookahead axes — and CI logs record what a gate actually covered.
inline std::string FormatAxis(const std::string& name, const Axis& axis) {
  std::string out = name;
  out += "{";
  constexpr size_t kMaxLabels = 6;
  for (size_t i = 0; i < axis.size() && i < kMaxLabels; ++i) {
    if (i > 0) out += ",";
    out += axis[i].label.empty() ? "-" : axis[i].label;
  }
  if (axis.size() > kMaxLabels) {
    out += ",...+" + std::to_string(axis.size() - kMaxLabels);
  }
  out += "}";
  return out;
}

/// `axes: ...` summary line for one spec (sweep shape + seed count).
inline std::string DescribeAxes(const ScenarioSpec& spec) {
  if (spec.custom_run) return "custom (not a config sweep)";
  std::string out;
  if (!spec.tables.empty()) {
    out += FormatAxis(spec.table_name.empty() ? "table" : spec.table_name,
                      spec.tables);
  }
  if (!spec.rows.empty()) {
    if (!out.empty()) out += " x ";
    out += FormatAxis(spec.row_name, spec.rows);
  }
  if (!spec.cols.empty()) {
    if (!out.empty()) out += " x ";
    out += FormatAxis("", spec.cols);
  }
  if (out.empty()) out = "single point";
  out += ", seeds=" + std::to_string(spec.seeds.empty() ? 1 : spec.seeds.size());
  return out;
}

/// Prints the registered scenario catalog (for --list).
inline int ListScenarios() {
  for (const ScenarioSpec* spec : ScenarioRegistry::Instance().All()) {
    std::printf("%-18s %s\n", spec->name.c_str(), spec->description.c_str());
    std::printf("%-18s   axes: %s\n", "", DescribeAxes(*spec).c_str());
  }
  return 0;
}

/// The scenario runner's own options, for both binaries' --help.
inline constexpr const char* kScenarioRunUsage =
    R"(  --list                     enumerate registered scenarios with their axes
  --scenario=<name>          run one scenario (more as positional args)
  --all                      run every registered scenario
  --jobs=N                   worker threads across sweep points
                             (default: hardware concurrency)
  --format=table|csv|json    output format (default table)
  --smoke                    CI-sized points (short windows, axis endpoints)
  --repeat=K                 rerun the scenario K times and report median
                             wall-clock metrics (deterministic output is
                             byte-identical across reruns by contract)
  --bench-json=PATH          write the machine-readable perf ledger to PATH
                             (throughput scenario; see tools/bench_compare.py)
)";

/// The scenario runner's command line — hs1bench's whole command and
/// hs1sim's --scenario mode. Returns the process exit code: 2 for any flag
/// error, else RunScenario's verdict over every named scenario.
inline int RunScenarioCommand(Flags& flags) {
  ScenarioRunOptions options;
  const unsigned hw = std::thread::hardware_concurrency();
  options.jobs = hw > 0 ? static_cast<int>(hw) : 1;
  bool all = false;
  if (!TakeCount(flags, "jobs", 1, &options.jobs) ||
      !TakeCount(flags, "repeat", 1, &options.repeat) ||
      !TakeSwitch(flags, "smoke", &options.smoke) || !TakeSwitch(flags, "all", &all)) {
    return 2;
  }
  ExperimentConfig scratch;  // validates forced values before any point runs
  if (!ApplyKnobFlags(flags, /*forcible_only=*/true, &scratch, &options.forced)) return 2;
  if (const std::string* v = flags.Take("format");
      v != nullptr && !ParseReportFormat(*v, &options.format)) {
    FlagError("format", "'" + *v + "' is not table|csv|json");
    return 2;
  }
  if (const std::string* v = flags.Take("bench-json")) options.bench_json = *v;
  std::vector<std::string> names = flags.positional();
  if (const std::string* v = flags.Take("scenario")) names.push_back(*v);
  if (!flags.RejectUntaken("scenario runs (not forcible)")) return 2;

  if (all) {
    for (const ScenarioSpec* spec : ScenarioRegistry::Instance().All()) {
      names.push_back(spec->name);
    }
  }
  std::vector<const ScenarioSpec*> specs;
  for (const std::string& name : names) {
    specs.push_back(ScenarioRegistry::Instance().Find(name));
    if (specs.back() == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
      return 2;
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no scenario named: pass --scenario=<name>, names, or --all\n");
    return 2;
  }
  int exit_code = 0;
  for (const ScenarioSpec* spec : specs) {
    const int code = RunScenario(*spec, options);
    if (code != 0) exit_code = code;
  }
  return exit_code;
}

}  // namespace hotstuff1::tools

#endif  // HOTSTUFF1_TOOLS_CLI_H_
