// Deterministic intra-experiment parallelism tests: the parallel executor
// must reproduce the single-threaded event loop byte for byte at any
// --sim-jobs count — shard chaining, barriers, the SyncShared gate, staged
// scheduling, cap truncation, and full experiments / scenario sweeps.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "sim/simulator.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

using sim::kShardSerial;
using sim::ShardId;
using sim::Simulator;

// A scripted workload over raw simulator events: every event appends to its
// shard's own log and re-schedules follow-ups (self-shard via inheritance,
// cross-shard explicitly). Returns the per-shard logs plus final clock.
struct ScriptOutcome {
  std::vector<std::vector<int>> logs;
  SimTime now = 0;
  uint64_t events = 0;

  bool operator==(const ScriptOutcome& o) const {
    return logs == o.logs && now == o.now && events == o.events;
  }
};

ScriptOutcome RunScript(int jobs) {
  constexpr int kShards = 4;
  Simulator sim;
  sim.SetJobs(jobs);
  ScriptOutcome out;
  out.logs.resize(kShards);

  for (ShardId s = 0; s < kShards; ++s) {
    // Three generations of same-timestamp events per shard; each generation
    // schedules the next via plain At (inheriting the shard) plus a
    // cross-shard message to the next shard.
    sim.AtShard(10, s, [&, s] {
      out.logs[s].push_back(1);
      sim.After(0, [&, s] { out.logs[s].push_back(2); });  // same tick, inherited
      sim.AtShard(20, (s + 1) % kShards, [&, s] {
        out.logs[(s + 1) % kShards].push_back(100 + static_cast<int>(s));
      });
    });
  }
  // An untagged event acts as a barrier and may read everything.
  sim.At(15, [&] {
    int total = 0;
    for (const auto& log : out.logs) total += static_cast<int>(log.size());
    EXPECT_EQ(total, 2 * kShards);  // all tick-10 work is complete
  });
  sim.Run();
  out.now = sim.Now();
  out.events = sim.EventsProcessed();
  return out;
}

TEST(ParallelExecutorTest, ScriptedShardsMatchSerial) {
  const ScriptOutcome serial = RunScript(1);
  EXPECT_EQ(serial.events, 4u + 4u + 1u + 4u);
  for (int jobs : {2, 4, 8}) {
    EXPECT_EQ(RunScript(jobs), serial) << "jobs=" << jobs;
  }
}

// SyncShared orders same-tick accesses to a shared domain in sequence
// order, so a shared log is deterministic even across shards.
TEST(ParallelExecutorTest, SyncSharedOrdersSharedDomain) {
  auto run = [](int jobs) {
    Simulator sim;
    sim.SetJobs(jobs);
    std::vector<int> shared;
    for (ShardId s = 0; s < 8; ++s) {
      sim.AtShard(5, s, [&, s] {
        sim.SyncShared();
        shared.push_back(static_cast<int>(s));
      });
    }
    sim.Run();
    return shared;
  };
  const std::vector<int> serial = run(1);
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

// A lookahead-window workout over raw simulator events: shards start at
// staggered timestamps inside one safe horizon, re-schedule themselves at
// sub-window delays (inline events), talk to a SyncShared-gated shared log,
// cross shards only at >= the window, and run into a barrier that truncates
// the window mid-stream. Every observable must match the serial loop.
struct WindowScriptOutcome {
  std::vector<std::vector<int>> logs;
  std::vector<int> shared;
  SimTime now = 0;
  uint64_t events = 0;

  bool operator==(const WindowScriptOutcome& o) const {
    return logs == o.logs && shared == o.shared && now == o.now &&
           events == o.events;
  }
};

WindowScriptOutcome RunWindowScript(int jobs, SimTime window) {
  constexpr int kShards = 4;
  Simulator sim;
  sim.SetJobs(jobs);
  sim.SetLookahead(window);
  WindowScriptOutcome out;
  out.logs.resize(kShards);

  for (ShardId s = 0; s < kShards; ++s) {
    // Staggered starts: under a window of >= kShards the whole group is one
    // round; under a smaller window it splits. Either must match serial.
    sim.AtShard(10 + s, s, [&, s] {
      out.logs[s].push_back(1);
      // Same-tick follow-on (inline at the parent's own timestamp).
      sim.After(0, [&, s] { out.logs[s].push_back(2); });
      // Sub-window self-reschedule (inline at a later timestamp), which
      // itself crosses shards at a horizon-respecting distance.
      sim.After(1, [&, s] {
        out.logs[s].push_back(3);
        sim.AtShard(sim.Now() + window + 4, (s + 1) % kShards, [&, s] {
          out.logs[(s + 1) % kShards].push_back(100 + static_cast<int>(s));
        });
      });
      // Shared-domain access in exact serial order.
      sim.After(2, [&, s] {
        sim.SyncShared();
        out.shared.push_back(static_cast<int>(s));
      });
    });
  }
  // A barrier inside the first horizon: windows must stop in front of it,
  // and same-shard follow-ons past it must wait for it.
  sim.At(12, [&] { out.shared.push_back(-1); });
  sim.Run();
  out.now = sim.Now();
  out.events = sim.EventsProcessed();
  return out;
}

TEST(ParallelExecutorTest, WindowScriptMatchesSerialAtAnyWindow) {
  for (SimTime window : {SimTime{0}, SimTime{2}, SimTime{6}, SimTime{50}}) {
    const WindowScriptOutcome serial = RunWindowScript(1, window);
    ASSERT_EQ(serial.shared.size(), 5u);  // 4 shard entries + the barrier
    for (int jobs : {2, 4, 8}) {
      EXPECT_EQ(RunWindowScript(jobs, window), serial)
          << "jobs=" << jobs << " window=" << window;
    }
  }
}

TEST(ParallelExecutorTest, EventCapTruncatesIdentically) {
  auto run = [](int jobs) {
    Simulator sim;
    sim.SetJobs(jobs);
    sim.SetEventCap(10);
    uint64_t ran = 0;
    for (ShardId s = 0; s < 4; ++s) {
      for (int k = 0; k < 5; ++k) {
        sim.AtShard(7, s, [&] { ++ran; });
      }
    }
    sim.Run();
    return std::tuple<uint64_t, uint64_t, bool, size_t>{
        ran, sim.EventsProcessed(), sim.cap_hit(), sim.PendingEvents()};
  };
  const auto serial = run(1);
  EXPECT_EQ(std::get<0>(serial), 10u);
  EXPECT_TRUE(std::get<2>(serial));
  EXPECT_EQ(run(4), serial);
}

ExperimentConfig SmallConfig(ProtocolKind kind) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.n = 16;
  cfg.batch_size = 100;
  cfg.duration = Millis(150);
  cfg.warmup = Millis(50);
  cfg.seed = 42;
  return cfg;
}

TEST(ParallelExperimentTest, ByteIdenticalAcrossSimJobs) {
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff1,
                            ProtocolKind::kHotStuff1Slotted}) {
    ExperimentConfig cfg = SmallConfig(kind);
    cfg.lookahead = {LookaheadMode::kOff, 0};
    const ExperimentResult serial = RunExperiment(cfg);
    EXPECT_TRUE(serial.safety_ok);
    for (uint32_t jobs : {4u, 8u}) {
      cfg.sim_jobs = jobs;
      ExpectSameResult(RunExperiment(cfg), serial);
    }
  }
}

// The lookahead acceptance gate at the experiment level: every deterministic
// field agrees between the serial loop, the tick-parallel executor, and the
// lookahead window (auto and explicit), at several worker counts.
TEST(ParallelExperimentTest, ByteIdenticalAcrossLookahead) {
  for (ProtocolKind kind : {ProtocolKind::kHotStuff, ProtocolKind::kHotStuff1}) {
    ExperimentConfig cfg = SmallConfig(kind);
    cfg.lookahead = {LookaheadMode::kOff, 0};
    const ExperimentResult serial = RunExperiment(cfg);
    EXPECT_TRUE(serial.safety_ok);
    struct Variant {
      uint32_t sim_jobs;
      LookaheadSpec lookahead;
    };
    for (const Variant v :
         {Variant{4, {LookaheadMode::kAuto, 0}},
          Variant{8, {LookaheadMode::kAuto, 0}},
          Variant{4, {LookaheadMode::kWindow, 100}},
          Variant{8, {LookaheadMode::kOff, 0}}}) {
      cfg.sim_jobs = v.sim_jobs;
      cfg.lookahead = v.lookahead;
      ExpectSameResult(RunExperiment(cfg), serial);
    }
  }
}

TEST(ParallelExperimentTest, ByteIdenticalUnderFaultsAndGeo) {
  ExperimentConfig cfg = SmallConfig(ProtocolKind::kHotStuff1);
  cfg.fault = Fault::kTailFork;
  cfg.num_faulty = 5;
  cfg.topology = sim::Topology::Geo(cfg.n, 3);
  cfg.view_timer = Millis(1200);
  cfg.delta = Millis(160);
  cfg.lookahead = {LookaheadMode::kOff, 0};
  const ExperimentResult serial = RunExperiment(cfg);
  cfg.sim_jobs = 8;
  ExpectSameResult(RunExperiment(cfg), serial);
  // Geo windows are wide (min cross-region hop); the adversary must still
  // be invisible in them.
  cfg.lookahead = {LookaheadMode::kAuto, 0};
  ExpectSameResult(RunExperiment(cfg), serial);
}

// Capped runs stay deterministic too: lookahead degrades to tick-parallel
// so truncation lands on exactly the serial event.
TEST(ParallelExperimentTest, ByteIdenticalUnderEventCapWithLookahead) {
  ExperimentConfig cfg = SmallConfig(ProtocolKind::kHotStuff1);
  cfg.event_cap = 30000;
  cfg.lookahead = {LookaheadMode::kOff, 0};
  const ExperimentResult serial = RunExperiment(cfg);
  EXPECT_TRUE(serial.event_cap_hit);
  cfg.sim_jobs = 8;
  cfg.lookahead = {LookaheadMode::kAuto, 0};
  ExpectSameResult(RunExperiment(cfg), serial);
}

// The acceptance gate: the fig8_scalability sweep's machine-readable output
// is byte-identical at any --sim-jobs x --lookahead (and at any --jobs).
TEST(ParallelExperimentTest, Fig8ScalabilityCsvByteIdentical) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig8_scalability");
  ASSERT_NE(spec, nullptr);

  auto run_csv = [&](int jobs, int sim_jobs, const char* lookahead) {
    LookaheadSpec spec_la;
    EXPECT_TRUE(ParseLookahead(lookahead, &spec_la)) << lookahead;
    const SweepRunner runner(
        jobs, {{"sim-jobs", std::to_string(sim_jobs)}, {"lookahead", lookahead}});
    const SweepOutcome outcome = runner.Run(*spec, /*smoke=*/true);
    std::ostringstream os;
    EmitCsv(outcome, os);
    return os.str();
  };
  const std::string baseline = run_csv(/*jobs=*/1, /*sim_jobs=*/1, "off");
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(run_csv(/*jobs=*/2, /*sim_jobs=*/1, "off"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/1, /*sim_jobs=*/8, "off"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/2, /*sim_jobs=*/4, "off"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/1, /*sim_jobs=*/4, "auto"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/2, /*sim_jobs=*/8, "auto"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/1, /*sim_jobs=*/8, "400"), baseline);
}

// Same gate for the open-loop saturation sweep: million-client sharded pools
// with every arrival process (poisson/bursty/diurnal/flash) must emit
// byte-identical CSV under any executor shape. This is where the per-group
// RNG streams, the cross-shard response fan-out, and the SyncShared-gated
// submission queue all meet the lookahead window at once.
TEST(ParallelExperimentTest, FigSaturationCsvByteIdentical) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("fig_saturation");
  ASSERT_NE(spec, nullptr);

  auto run_csv = [&](int jobs, int sim_jobs, const char* lookahead) {
    LookaheadSpec spec_la;
    EXPECT_TRUE(ParseLookahead(lookahead, &spec_la)) << lookahead;
    const SweepRunner runner(
        jobs, {{"sim-jobs", std::to_string(sim_jobs)}, {"lookahead", lookahead}});
    const SweepOutcome outcome = runner.Run(*spec, /*smoke=*/true);
    std::ostringstream os;
    EmitCsv(outcome, os);
    return os.str();
  };
  const std::string baseline = run_csv(/*jobs=*/1, /*sim_jobs=*/1, "off");
  EXPECT_FALSE(baseline.empty());
  // The smoke grid keeps the endpoint arrival processes; both must be there.
  EXPECT_NE(baseline.find("poisson"), std::string::npos);
  EXPECT_EQ(run_csv(/*jobs=*/2, /*sim_jobs=*/4, "off"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/1, /*sim_jobs=*/4, "auto"), baseline);
  EXPECT_EQ(run_csv(/*jobs=*/2, /*sim_jobs=*/8, "auto"), baseline);
}

// par_speedup sweeps sim_jobs and lookahead itself: its machine-readable
// output must be byte-identical across repeated runs (wall_ms is table-only)
// and across CLI overrides (which the axis-respect rule ignores).
TEST(ParallelExperimentTest, ParSpeedupCsvByteIdentical) {
  const ScenarioSpec* spec = ScenarioRegistry::Instance().Find("par_speedup");
  ASSERT_NE(spec, nullptr);

  auto run_csv = [&](int jobs, int sim_jobs, LookaheadMode mode) {
    const SweepRunner runner(jobs, {{"sim-jobs", std::to_string(sim_jobs)},
                                    {"lookahead", FormatLookahead({mode, 0})}});
    const SweepOutcome outcome = runner.Run(*spec, /*smoke=*/true);
    std::ostringstream os;
    EmitCsv(outcome, os);
    return os.str();
  };
  const std::string baseline = run_csv(1, 1, LookaheadMode::kOff);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(baseline.find("wall_ms"), std::string::npos)
      << "wall_ms must not reach the machine-readable output";
  // Repeated run: wall-clock noise must not leak into the bytes.
  EXPECT_EQ(run_csv(1, 1, LookaheadMode::kOff), baseline);
  EXPECT_EQ(run_csv(2, 4, LookaheadMode::kOff), baseline);
  EXPECT_EQ(run_csv(1, 8, LookaheadMode::kAuto), baseline);
  EXPECT_EQ(run_csv(2, 1, LookaheadMode::kAuto), baseline);
}

}  // namespace
}  // namespace hotstuff1
