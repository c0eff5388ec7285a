// Liveness oracle + adversary-library tests.
//
//   * LivenessOracle unit semantics: the online k-view stall detector, the
//     end-of-run silence check, GST gating (pre-GST churn is free), and the
//     skip conditions (cap-truncated runs, never-reached GST).
//   * Rollback legality (Def. 4.7): a victim rollback must be justified by an
//     outstanding misleading campaign no more than two epochs older than the
//     conflicting view. The stale-epoch case is a regression test — before
//     the campaign records existed, ANY victim rollback under kRollbackAttack
//     passed, including ones no live campaign could explain.
//   * Mutation self-test: the test_break_liveness hook breaks pacemaker epoch
//     synchronization; only the progress monitor can see the resulting stall
//     (the safety oracle stays silent — nothing unsafe ever happens).
//   * Over-threshold tier: every OverThresholdCaseFromSeed tuple must trip
//     exactly the oracle family it advertises.
//   * Executor invariance: a liveness-violating strategy run produces
//     byte-identical verdicts and diagnostics at any sim_jobs x lookahead.

#include <gtest/gtest.h>

#include "runtime/adversary.h"
#include "runtime/experiment.h"
#include "runtime/fuzz.h"
#include "runtime/liveness.h"
#include "runtime/oracle.h"
#include "sim/simulator.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

using sim::Simulator;

std::shared_ptr<const std::vector<bool>> Mask(uint32_t n,
                                              std::vector<uint32_t> faulty) {
  auto mask = std::make_shared<std::vector<bool>>(n, false);
  for (uint32_t r : faulty) (*mask)[r] = true;
  return mask;
}

// --- LivenessOracle unit semantics -------------------------------------------

TEST(LivenessOracleTest, OnlineStallFiresAfterKViewsWithoutCommit) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.gst = 0;  // synchronous: armed from the start
  setup.k = 5;
  setup.grace = Millis(500);
  LivenessOracle oracle(&sim, setup);

  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(oracle.violations(), 0u);  // exactly k views: still within budget
  oracle.OnViewEntered(0, 6);
  EXPECT_EQ(oracle.violations(), 1u);
  EXPECT_NE(oracle.FirstDiagnostic().find("liveness-stall"), std::string::npos)
      << oracle.FirstDiagnostic();

  // Re-armed: the next report needs k further views, not one.
  oracle.OnViewEntered(0, 7);
  EXPECT_EQ(oracle.violations(), 1u);
  oracle.OnViewEntered(0, 12);
  EXPECT_EQ(oracle.violations(), 2u);
}

TEST(LivenessOracleTest, CommitsAdvanceTheProgressBaseline) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.k = 5;
  LivenessOracle oracle(&sim, setup);

  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  oracle.OnBlockCommitted(0, nullptr);  // progress: baseline moves to view 5
  for (uint64_t v = 6; v <= 10; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(oracle.violations(), 0u);
  oracle.OnViewEntered(0, 11);  // 11 > 5 + 5
  EXPECT_EQ(oracle.violations(), 1u);
}

TEST(LivenessOracleTest, FaultyReplicasDoNotCount) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.k = 5;
  setup.faulty_mask = Mask(4, {3});
  LivenessOracle oracle(&sim, setup);
  // A Byzantine replica racing ahead in views proves nothing about correct
  // progress; its commits must not reset the baseline either.
  oracle.OnViewEntered(3, 100);
  EXPECT_EQ(oracle.violations(), 0u);
  for (uint64_t v = 1; v <= 5; ++v) oracle.OnViewEntered(0, v);
  oracle.OnBlockCommitted(3, nullptr);  // faulty commit: not progress
  oracle.OnViewEntered(0, 6);
  EXPECT_EQ(oracle.violations(), 1u);
}

TEST(LivenessOracleTest, PreGstChurnIsFree) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.gst = Millis(10);  // barrier pending: monitor disarmed until notified
  setup.k = 5;
  LivenessOracle oracle(&sim, setup);

  // The adversary may burn arbitrarily many pre-GST views.
  for (uint64_t v = 1; v <= 50; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(oracle.violations(), 0u);

  oracle.OnGstReached();  // Thm B.8's clock starts here, at view 50
  for (uint64_t v = 51; v <= 55; ++v) oracle.OnViewEntered(0, v);
  EXPECT_EQ(oracle.violations(), 0u);
  oracle.OnViewEntered(0, 56);
  EXPECT_EQ(oracle.violations(), 1u);
}

TEST(LivenessOracleTest, SilenceFiresOnceAfterGrace) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.grace = Millis(100);
  LivenessOracle oracle(&sim, setup);
  oracle.Finalize(Millis(100), /*event_cap_hit=*/false);
  EXPECT_EQ(oracle.violations(), 1u);
  EXPECT_NE(oracle.FirstDiagnostic().find("liveness-silence"), std::string::npos)
      << oracle.FirstDiagnostic();
  oracle.Finalize(Millis(100), false);  // idempotent
  EXPECT_EQ(oracle.violations(), 1u);
}

TEST(LivenessOracleTest, SilenceSkipsShortCappedAndPreGstRuns) {
  {
    // Run shorter than the grace: silence proves nothing.
    Simulator sim;
    LivenessOracle::Setup setup;
    setup.n = 4;
    setup.grace = Millis(100);
    LivenessOracle oracle(&sim, setup);
    oracle.Finalize(Millis(99), false);
    EXPECT_EQ(oracle.violations(), 0u);
  }
  {
    // Cap-truncated run: the simulator stopped, not the protocol.
    Simulator sim;
    LivenessOracle::Setup setup;
    setup.n = 4;
    setup.grace = Millis(100);
    LivenessOracle oracle(&sim, setup);
    oracle.Finalize(Millis(500), /*event_cap_hit=*/true);
    EXPECT_EQ(oracle.violations(), 0u);
  }
  {
    // GST never arrived (open-ended interference): nothing was promised.
    Simulator sim;
    LivenessOracle::Setup setup;
    setup.n = 4;
    setup.gst = StrategySchedule::kGstNever;
    setup.grace = Millis(100);
    LivenessOracle oracle(&sim, setup);
    oracle.Finalize(Millis(500), false);
    EXPECT_EQ(oracle.violations(), 0u);
  }
}

TEST(LivenessOracleTest, DiagnosticsCarryConfigAndSeed) {
  Simulator sim;
  LivenessOracle::Setup setup;
  setup.n = 4;
  setup.grace = Millis(100);
  setup.config_summary = "--protocol=hotstuff1 --n=4 --seed=77";
  LivenessOracle oracle(&sim, setup);
  oracle.Finalize(Millis(200), false);
  ASSERT_EQ(oracle.violations(), 1u);
  const std::string diag = oracle.FirstDiagnostic();
  EXPECT_NE(diag.find("--protocol=hotstuff1 --n=4"), std::string::npos) << diag;
  EXPECT_NE(diag.find("seed=77"), std::string::npos) << diag;
  EXPECT_NE(diag.find("event#"), std::string::npos) << diag;
}

// --- rollback legality (Def. 4.7) --------------------------------------------

InvariantOracle::Setup RollbackSetup() {
  InvariantOracle::Setup setup;
  setup.n = 7;  // f = 2: epochs are 3 views wide
  setup.fault = Fault::kRollbackAttack;
  setup.rollback_victims = 1;  // victim = replica 0 (first correct id)
  setup.config_summary = "--protocol=test --n=7";
  return setup;
}

TEST(RollbackLegalityTest, CampaignJustifiesAVictimRollback) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(/*leader=*/1, /*view=*/1);
  oracle.OnRollback(/*replica=*/0, 1, /*conflict_view=*/2);
  EXPECT_EQ(oracle.violations(), 0u) << oracle.FirstDiagnostic();
}

TEST(RollbackLegalityTest, StaleEpochCampaignNoLongerJustifies) {
  // Regression: before the per-victim campaign records, ANY rollback at a
  // designated victim passed under kRollbackAttack — including one whose
  // only outstanding campaign was planted many epochs earlier and could not
  // explain the conflict (Def. 4.7 bounds the misleading window).
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/1);  // epoch 0
  oracle.OnRollback(0, 1, /*conflict_view=*/12);  // epoch 4: > 2 epochs later
  ASSERT_EQ(oracle.violations(), 1u);
  EXPECT_NE(oracle.FirstDiagnostic().find("stale"), std::string::npos)
      << oracle.FirstDiagnostic();
}

TEST(RollbackLegalityTest, NoCampaignMeansNoLegalRollback) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnRollback(0, 1, /*conflict_view=*/2);
  ASSERT_EQ(oracle.violations(), 1u);
  EXPECT_NE(oracle.FirstDiagnostic().find("no outstanding misleading campaign"),
            std::string::npos)
      << oracle.FirstDiagnostic();
}

TEST(RollbackLegalityTest, OneCampaignCannotLaunderTwoRollbacks) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/4);
  oracle.OnRollback(0, 1, /*conflict_view=*/5);  // consumes the record
  EXPECT_EQ(oracle.violations(), 0u);
  oracle.OnRollback(0, 1, /*conflict_view=*/5);  // nothing left to justify it
  EXPECT_EQ(oracle.violations(), 1u);
}

TEST(RollbackLegalityTest, NonVictimRollbackStillFires) {
  Simulator sim;
  InvariantOracle oracle(&sim, RollbackSetup());
  oracle.OnEquivocationSent(1, /*view=*/1);
  oracle.OnRollback(/*replica=*/3, 1, /*conflict_view=*/2);
  ASSERT_EQ(oracle.violations(), 1u);
  EXPECT_NE(oracle.FirstDiagnostic().find("not a designated victim"),
            std::string::npos)
      << oracle.FirstDiagnostic();
}

// --- mutation self-test --------------------------------------------------------

ExperimentConfig StallMutationConfig() {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 7;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = 9;
  cfg.oracle_enabled = true;
  // The auto grace (>= 500ms) is sized for long runs; this window ends at
  // 190ms, so bound the silence threshold explicitly.
  cfg.liveness_grace = Millis(60);
  return cfg;
}

TEST(LivenessMutation, ControlRunIsClean) {
  const ExperimentResult res = RunExperiment(StallMutationConfig());
  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  EXPECT_GT(res.committed_blocks, 0u);
}

TEST(LivenessMutation, BrokenEpochSyncIsCaughtOnlyByTheProgressMonitor) {
  // The injected pacemaker bug: replicas stop broadcasting epoch Wishes past
  // the genesis epoch, so no timeout certificate ever forms and views stop.
  // Nothing unsafe happens — no equivocation, no illegal rollback — so the
  // safety oracle must stay silent while the liveness oracle reports the
  // broken Thm B.8 promise with a reproducible diagnostic.
  ExperimentConfig cfg = StallMutationConfig();
  cfg.test_break_liveness = true;
  Experiment exp(cfg);
  const ExperimentResult res = exp.Run();

  EXPECT_TRUE(res.safety_ok);
  EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
  EXPECT_GT(res.liveness_violations, 0u);

  const std::string& diag = res.liveness_first_violation;
  EXPECT_NE(diag.find("liveness"), std::string::npos) << diag;
  EXPECT_NE(diag.find("--n=7 "), std::string::npos) << diag;
  EXPECT_NE(diag.find("seed=9"), std::string::npos) << diag;
  ASSERT_NE(exp.liveness_oracle(), nullptr);
  EXPECT_GT(exp.liveness_oracle()->events_observed(), 0u);
}

// --- over-threshold tier -------------------------------------------------------

class OverThreshold : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverThreshold, ExactlyTheExpectedOracleFamilyFires) {
  const OverThresholdCase c = OverThresholdCaseFromSeed(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "case " << GetParam() << " (" << c.label
               << "): " << DescribeConfig(c.config));
  ASSERT_NE(c.expect_safety, c.expect_liveness);  // generator names one family
  const ExperimentResult res = RunExperiment(c.config);
  if (c.expect_liveness) {
    EXPECT_GT(res.liveness_violations, 0u);
    EXPECT_EQ(res.oracle_violations, 0u) << res.oracle_first_violation;
    EXPECT_TRUE(res.safety_ok);
  } else {
    EXPECT_GT(res.oracle_violations, 0u);
    EXPECT_EQ(res.liveness_violations, 0u) << res.liveness_first_violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OverThreshold,
                         ::testing::Range<uint64_t>(0, kOverThresholdCases));

// --- executor invariance -------------------------------------------------------

ExperimentConfig StallStrategyConfig() {
  // fig_liveness's over-threshold point: a 3-of-7 coalition withholds from
  // epoch 1 onwards while declaring GST at 30ms.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = 7;
  cfg.batch_size = 10;
  cfg.num_clients = 20;
  cfg.view_timer = Millis(10);
  cfg.duration = Millis(150);
  cfg.warmup = Millis(40);
  cfg.seed = 11;
  cfg.num_faulty = 3;
  cfg.strategy.entries.push_back({1, kEpochForever, kActWithhold, 0});
  cfg.strategy.declared_gst = Millis(30);
  cfg.liveness_grace = Millis(60);
  cfg.oracle_enabled = true;
  return cfg;
}

TEST(LivenessDeterminism, ViolatingStrategyRunIsExecutorInvariant) {
  ExperimentConfig cfg = StallStrategyConfig();
  cfg.sim_jobs = 1;
  cfg.lookahead = {LookaheadMode::kOff, 0};
  const ExperimentResult serial = RunExperiment(cfg);
  ASSERT_GT(serial.liveness_violations, 0u);
  ASSERT_EQ(serial.oracle_violations, 0u);

  for (uint32_t sim_jobs : {1u, 4u}) {
    for (LookaheadMode mode : {LookaheadMode::kOff, LookaheadMode::kAuto}) {
      if (sim_jobs == 1 && mode == LookaheadMode::kOff) continue;  // baseline
      cfg.sim_jobs = sim_jobs;
      cfg.lookahead = {mode, 0};
      SCOPED_TRACE(::testing::Message() << "sim_jobs=" << sim_jobs
                                        << " lookahead="
                                        << FormatLookahead(cfg.lookahead));
      ExpectSameResult(RunExperiment(cfg), serial);
    }
  }
}

// Arming the oracles must not change the run: the GST barrier event is
// scheduled whether or not anyone listens, so enabling the monitor only adds
// observation, never behaviour.
TEST(LivenessDeterminism, EnablingOraclesDoesNotPerturbAStrategyRun) {
  ExperimentConfig cfg = StallStrategyConfig();
  const ExperimentResult with_oracle = RunExperiment(cfg);
  cfg.oracle_enabled = false;
  const ExperimentResult without = RunExperiment(cfg);
  EXPECT_EQ(with_oracle.accepted, without.accepted);
  EXPECT_EQ(with_oracle.committed_blocks, without.committed_blocks);
  EXPECT_EQ(with_oracle.views, without.views);
  EXPECT_EQ(with_oracle.messages_sent, without.messages_sent);
  EXPECT_EQ(with_oracle.bytes_sent, without.bytes_sent);
  EXPECT_EQ(without.liveness_violations, 0u);  // nobody watching
}

}  // namespace
}  // namespace hotstuff1
