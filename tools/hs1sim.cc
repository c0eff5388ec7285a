// hs1sim: command-line driver for the HotStuff-1 simulation harness.
//
// Examples:
//   hs1sim --protocol=hotstuff1 --n=32 --batch=100 --duration_ms=2000
//   hs1sim --protocol=slotted --n=31 --fault=slow --faulty=10 --timer_ms=100
//   hs1sim --protocol=hotstuff2 --workload=tpcc --regions=3 --paper_point
//   hs1sim --scenario=fig8_scalability --jobs=4 --format=csv
//
// Prints a one-line machine-friendly summary plus a human-readable block.
// Every experiment flag comes from the knob table (runtime/config_knob.h).

#include <cstdio>
#include <string>

#include "runtime/config_knob.h"
#include "runtime/experiment.h"
#include "tools/cli.h"

namespace hotstuff1 {
namespace {

// The single-point defaults --help prints and a flagless run uses.
ExperimentConfig PointDefaults() {
  ExperimentConfig cfg;
  cfg.duration = Millis(2000);
  cfg.warmup = Millis(300);
  cfg.delta = Millis(1);
  cfg.rollback_victims = (cfg.n - 1) / 3;
  return cfg;
}

void PrintUsage() {
  const ExperimentConfig defaults = PointDefaults();
  std::string forcible;
  int count = 0;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (knob.forcible) forcible += (count++ % 4 == 0 ? "\n   --" : " --") + knob.flag;
  }
  std::printf("hs1sim - HotStuff-1 reproduction driver\n\n%s"
              "  --paper_point                 throughput at saturation + "
              "light-load latency\n\n"
              "Registered scenarios (the hs1bench sweep engine; --scenario "
              "runs exactly what\nhs1bench runs):\n%s"
              "  (forced onto scenario points too:%s)\n",
              tools::KnobUsage(/*forcible_only=*/false, &defaults).c_str(),
              tools::kScenarioRunUsage, forcible.c_str());
}

// Parses a single-point run. Returns false after naming the bad flag.
bool ParsePoint(tools::Flags& flags, ExperimentConfig* cfg) {
  *cfg = PointDefaults();
  if (!tools::ApplyKnobFlags(flags, /*forcible_only=*/false, cfg)) return false;
  // Cross-knob defaults, derived from the parsed values: victims track f of
  // n, and a geo deployment gets WAN timer and delta defaults. Re-applying
  // the flags on top keeps every explicit value.
  cfg->rollback_victims = (cfg->n - 1) / 3;
  if (RegionCount(cfg->topology) > 1) {
    cfg->view_timer = Millis(1200);
    cfg->delta = Millis(160);
  }
  tools::ApplyKnobFlags(flags, /*forcible_only=*/false, cfg);
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", flags.positional()[0].c_str());
    return false;
  }
  return flags.RejectUntaken("single-point runs");
}

int RunMain(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.Has("help")) {
    // Explicit --help is a success; exit code 2 stays reserved for flag errors.
    PrintUsage();
    return 0;
  }
  if (flags.Has("list")) return tools::ListScenarios();
  if (flags.Has("scenario")) return tools::RunScenarioCommand(flags);

  ExperimentConfig cfg;
  bool paper_point = false;
  if (!tools::TakeSwitch(flags, "paper_point", &paper_point) ||
      !ParsePoint(flags, &cfg)) {
    return 2;
  }
  const uint32_t regions = RegionCount(cfg.topology);
  const char* workload = cfg.workload == WorkloadKind::kTpcc ? "tpcc" : "ycsb";

  const ExperimentResult res = paper_point ? RunPaperPoint(cfg) : RunExperiment(cfg);

  // Machine-friendly line first.
  std::printf(
      "RESULT protocol=\"%s\" n=%u batch=%u tput_tps=%.0f lat_avg_ms=%.3f "
      "lat_p50_ms=%.3f lat_p99_ms=%.3f lat_p999_ms=%.3f accepted=%llu spec=%llu "
      "views=%llu slots=%llu timeouts=%llu rollbacks=%llu resub=%llu "
      "backlog=%llu safety=%d cap_hit=%d liveness_violations=%llu "
      "oracle_violations=%llu\n",
      res.protocol.c_str(), cfg.n, cfg.batch_size, res.throughput_tps,
      res.avg_latency_ms, res.p50_latency_ms, res.p99_latency_ms,
      res.p999_latency_ms, static_cast<unsigned long long>(res.accepted),
      static_cast<unsigned long long>(res.accepted_speculative),
      static_cast<unsigned long long>(res.views),
      static_cast<unsigned long long>(res.slots),
      static_cast<unsigned long long>(res.timeouts),
      static_cast<unsigned long long>(res.rollback_events),
      static_cast<unsigned long long>(res.resubmissions),
      static_cast<unsigned long long>(res.backlog), res.safety_ok ? 1 : 0,
      res.event_cap_hit ? 1 : 0,
      static_cast<unsigned long long>(res.liveness_violations),
      static_cast<unsigned long long>(res.oracle_violations));

  std::printf("\n%s, n=%u (f=%u), batch=%u, %s%s\n", res.protocol.c_str(), cfg.n,
              (cfg.n - 1) / 3, cfg.batch_size, workload,
              regions > 1 ? (", " + std::to_string(regions) + " regions").c_str()
                          : "");
  std::printf("  throughput   %10.0f txn/s\n", res.throughput_tps);
  std::printf("  latency      %10.2f ms avg, %.2f ms p99\n", res.avg_latency_ms,
              res.p99_latency_ms);
  std::printf("  speculative  %10llu of %llu accepts\n",
              static_cast<unsigned long long>(res.accepted_speculative),
              static_cast<unsigned long long>(res.accepted));
  std::printf("  safety       %10s\n", res.safety_ok ? "OK" : "VIOLATED");
  if (cfg.oracle_enabled) {
    std::printf("  oracle       %10s\n",
                res.oracle_violations == 0 ? "OK" : "VIOLATED");
    if (res.oracle_violations > 0) {
      std::printf("  %s\n", res.oracle_first_violation.c_str());
    }
    std::printf("  liveness     %10s\n",
                res.liveness_violations == 0 ? "OK" : "VIOLATED");
    if (res.liveness_violations > 0) {
      std::printf("  %s\n", res.liveness_first_violation.c_str());
    }
  }
  if (res.event_cap_hit) {
    std::printf("  WARNING: the simulator stopped at its event cap - this run "
                "was truncated, not drained\n");
  }
  if (res.cap_parallelism_degraded) {
    std::fprintf(stderr,
                 "warning: --event_cap with --sim-jobs > 1 disables windowed "
                 "lookahead; this run fell back to tick-parallel scheduling "
                 "(cap_parallelism_degraded)\n");
  }
  return res.safety_ok && res.oracle_violations == 0 &&
                 res.liveness_violations == 0
             ? 0
             : 1;
}

}  // namespace
}  // namespace hotstuff1

int main(int argc, char** argv) { return hotstuff1::RunMain(argc, argv); }
