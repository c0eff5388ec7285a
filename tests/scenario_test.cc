// Scenario engine and sweep runner: registry round-trips, deterministic
// expansion, worker-count-independent merged output, and the event-cap
// diagnostic plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "runtime/config_knob.h"
#include "runtime/report.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "sim/simulator.h"
#include "tests/knob_samples.h"

namespace hotstuff1 {
namespace {

// A fast sweep: 2x2x2 points of a tiny cluster, milliseconds of virtual time.
ScenarioSpec TinySpec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.title = "Tiny";
  spec.row_name = "n";
  spec.base.batch_size = 10;
  spec.base.num_clients = 20;
  spec.base.duration = Millis(80);
  spec.base.warmup = Millis(20);
  spec.base.view_timer = Millis(10);
  spec.base.delta = Millis(1);
  spec.mode = RunMode::kSingle;
  for (uint32_t n : {4u, 7u}) {
    spec.rows.push_back({std::to_string(n), [n](ExperimentConfig& c) { c.n = n; }});
  }
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff1}) {
    spec.cols.push_back(
        {ProtocolName(kind), [kind](ExperimentConfig& c) { c.protocol = kind; }});
  }
  spec.seeds = {1, 2};
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  return spec;
}

TEST(ScenarioExpansionTest, CrossProductInDeterministicOrder) {
  const ScenarioSpec spec = TinySpec();
  const std::vector<SweepPoint> points = ExpandScenario(spec);
  ASSERT_EQ(points.size(), 2u * 2u * 2u);
  // Order: rows x cols x seeds, indices consecutive.
  EXPECT_EQ(points[0].row_label, "4");
  EXPECT_EQ(points[0].col_label, "HotStuff");
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[2].col_label, "HotStuff-1");
  EXPECT_EQ(points[4].row_label, "7");
  for (size_t i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
  // Mutators applied: n and protocol took effect.
  EXPECT_EQ(points[0].config.n, 4u);
  EXPECT_EQ(points[4].config.n, 7u);
  EXPECT_EQ(points[2].config.protocol, ProtocolKind::kHotStuff1);
}

TEST(ScenarioExpansionTest, SmokeSubsamplesAxesAndShrinksWindows) {
  ScenarioSpec spec = TinySpec();
  spec.base.duration = Seconds(30);
  spec.rows.push_back({"10", [](ExperimentConfig& c) { c.n = 10; }});
  const std::vector<SweepPoint> points = ExpandScenario(spec, /*smoke=*/true);
  // Rows subsampled to endpoints {4, 10}, seeds to 1.
  ASSERT_EQ(points.size(), 2u * 2u);
  EXPECT_EQ(points.front().row_label, "4");
  EXPECT_EQ(points.back().row_label, "10");
  for (const SweepPoint& p : points) {
    EXPECT_LE(p.config.duration, Millis(120));
    EXPECT_EQ(p.mode, RunMode::kSingle);
  }
}

TEST(ScenarioRegistryTest, AllScenariosExpandNonzeroDuplicateFree) {
  const auto all = ScenarioRegistry::Instance().All();
  ASSERT_GE(all.size(), 10u);  // the ten former bench binaries
  for (const ScenarioSpec* spec : all) {
    SCOPED_TRACE(spec->name);
    EXPECT_NE(ScenarioRegistry::Instance().Find(spec->name), nullptr);
    if (spec->custom_run) continue;  // micro: not a sweep
    for (bool smoke : {false, true}) {
      const std::vector<SweepPoint> points = ExpandScenario(*spec, smoke);
      EXPECT_FALSE(points.empty());
      std::set<std::tuple<std::string, std::string, std::string, uint64_t>> seen;
      for (const SweepPoint& p : points) {
        EXPECT_TRUE(
            seen.insert({p.table_label, p.row_label, p.col_label, p.seed}).second)
            << "duplicate point " << p.table_label << "/" << p.row_label << "/"
            << p.col_label << "/" << p.seed;
      }
    }
  }
}

TEST(ScenarioRegistryTest, FormerBenchBinariesAreRegistered) {
  for (const char* name :
       {"fig8_scalability", "fig8_batching", "fig8_geo", "fig9_delay",
        "fig9_georegions", "fig10_slowness", "fig10_tailfork", "fig10_rollback",
        "ablation", "micro"}) {
    EXPECT_NE(ScenarioRegistry::Instance().Find(name), nullptr) << name;
  }
}

std::string RunCsv(const ScenarioSpec& spec, int jobs, bool smoke) {
  SweepRunner runner(jobs);
  const SweepOutcome outcome = runner.Run(spec, smoke);
  std::ostringstream os;
  EmitCsv(outcome, os);
  return os.str();
}

TEST(SweepRunnerTest, MergedCsvIsIdenticalAtAnyWorkerCount) {
  const ScenarioSpec spec = TinySpec();
  const std::string serial = RunCsv(spec, /*jobs=*/1, /*smoke=*/false);
  const std::string parallel = RunCsv(spec, /*jobs=*/8, /*smoke=*/false);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // byte-identical merged output
}

TEST(SweepRunnerTest, RegisteredScenarioSmokeIsWorkerCountIndependent) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig8_scalability");
  ASSERT_NE(spec, nullptr);
  const std::string serial = RunCsv(*spec, /*jobs=*/1, /*smoke=*/true);
  const std::string parallel = RunCsv(*spec, /*jobs=*/8, /*smoke=*/true);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(SweepRunnerTest, TableAndJsonEmittersAreOrderStable) {
  const ScenarioSpec spec = TinySpec();
  SweepRunner one(1), eight(8);
  const SweepOutcome a = one.Run(spec);
  const SweepOutcome b = eight.Run(spec);
  std::ostringstream ta, tb, ja, jb;
  EmitTables(a, ta);
  EmitTables(b, tb);
  EmitJson(a, ja);
  EmitJson(b, jb);
  EXPECT_EQ(ta.str(), tb.str());
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(SweepRunnerTest, MultiSeedTablesCarryVarianceColumns) {
  const ScenarioSpec spec = TinySpec();  // seeds = {1, 2}
  SweepRunner runner(1);
  const SweepOutcome outcome = runner.Run(spec);
  std::ostringstream os;
  EmitTables(outcome, os);
  const std::string text = os.str();
  // Every cell aggregates 2 seeds, so the spread marker and its legend must
  // be present; with a single seed neither appears.
  EXPECT_NE(text.find("±"), std::string::npos) << text;
  EXPECT_NE(text.find("sample stddev"), std::string::npos);

  ScenarioSpec single = TinySpec();
  single.seeds = {1};
  std::ostringstream os1;
  EmitTables(SweepRunner(1).Run(single), os1);
  EXPECT_EQ(os1.str().find("±"), std::string::npos);
}

TEST(SweepRunnerTest, ForcedKnobsRespectSweptAxes) {
  // For every forcible knob: a scenario that sweeps the knob itself keeps
  // its axis values even when the runner carries a forced value; a scenario
  // that does not gets the forced value on every point.
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (!knob.forcible) continue;
    SCOPED_TRACE("--" + knob.flag);
    const std::string forced = KnobSamples().at(knob.flag);
    const SweepRunner runner(1, {{knob.flag, forced}});
    ExperimentConfig want;
    ASSERT_TRUE(knob.parse(forced, &want, nullptr));

    ScenarioSpec sweeping = TinySpec();
    sweeping.rows = {{"base", nullptr},
                     {"swept", [&](ExperimentConfig& c) { knob.parse(forced, &c, nullptr); }}};
    for (const SweepPoint& p : runner.Points(sweeping)) {
      EXPECT_EQ(knob.same(p.config, sweeping.base), p.row_label == "base");
    }

    const ScenarioSpec plain = TinySpec();
    for (const SweepPoint& p : runner.Points(plain)) {
      EXPECT_TRUE(knob.same(p.config, want));
    }
  }
}

TEST(SweepRunnerTest, ComputeStatsMatchesHandValues) {
  const SampleStats empty = ComputeStats({});
  EXPECT_EQ(empty.count, 0u);
  const SampleStats one = ComputeStats({5.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  const SampleStats s = ComputeStats({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // sqrt(((2-4)^2+(0)^2+(2)^2)/2)
  EXPECT_NEAR(s.ci95, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
}

TEST(EventCapTest, SimulatorReportsTruncation) {
  sim::Simulator sim;
  sim.SetEventCap(10);
  std::function<void()> loop = [&] { sim.After(1, loop); };
  sim.After(1, loop);
  sim.Run();
  EXPECT_TRUE(sim.cap_hit());

  sim::Simulator clean;
  clean.After(1, [] {});
  clean.Run();
  EXPECT_FALSE(clean.cap_hit());
}

TEST(EventCapTest, ExperimentPropagatesCapHitAsDiagnostic) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.duration = Millis(50);
  cfg.warmup = Millis(10);
  cfg.event_cap = 500;  // far below what the run needs
  const ExperimentResult truncated = RunExperiment(cfg);
  EXPECT_TRUE(truncated.event_cap_hit);

  cfg.event_cap = 0;  // unlimited
  const ExperimentResult clean = RunExperiment(cfg);
  EXPECT_FALSE(clean.event_cap_hit);
}

}  // namespace
}  // namespace hotstuff1
