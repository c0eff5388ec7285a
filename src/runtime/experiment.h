// The experiment runner: wires simulator, network, topology, workload,
// clients, replicas and faults; runs for a virtual duration; collects the
// metrics the paper reports (throughput, client latency) plus safety
// diagnostics.

#ifndef HOTSTUFF1_RUNTIME_EXPERIMENT_H_
#define HOTSTUFF1_RUNTIME_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "client/client_pool.h"
#include "consensus/replica.h"
#include "runtime/adversary.h"
#include "sim/topology.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hotstuff1 {

class InvariantOracle;  // runtime/oracle.h
class LivenessOracle;   // runtime/liveness.h

enum class ProtocolKind {
  kHotStuff = 0,
  kHotStuff2 = 1,
  kHotStuff1Basic = 2,
  kHotStuff1 = 3,         // streamlined
  kHotStuff1Slotted = 4,  // streamlined + slotting
};

const char* ProtocolName(ProtocolKind kind);
bool IsSpeculative(ProtocolKind kind);

enum class WorkloadKind { kYcsb = 0, kTpcc = 1 };

/// How the simulator's conservative lookahead window is chosen (the safe
/// horizon within which the parallel executor may run events of different
/// timestamps concurrently — see docs/ARCHITECTURE.md, "Lookahead window").
enum class LookaheadMode : uint32_t {
  kAuto = 0,    // derive from min cross-shard delivery latency at setup
  kOff = 1,     // tick-parallel only (PR 2 behavior)
  kWindow = 2,  // explicit window, microseconds of virtual time
};

struct LookaheadSpec {
  LookaheadMode mode = LookaheadMode::kAuto;
  SimTime window = 0;  // only read when mode == kWindow
};

/// Parses "auto", "off", or a positive integer microsecond window ("0" is
/// off). Returns false on anything else.
bool ParseLookahead(const std::string& s, LookaheadSpec* out);
std::string FormatLookahead(const LookaheadSpec& spec);

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kHotStuff1;
  uint32_t n = 32;
  uint32_t batch_size = 100;
  sim::Topology topology;     // defaults to LAN(n) when empty
  uint32_t client_region = 0; // clients' region (paper: North Virginia)

  SimTime duration = Seconds(3);
  SimTime warmup = Millis(500);
  SimTime view_timer = Millis(10);
  SimTime delta = Millis(2);
  uint32_t max_slots = 0;

  WorkloadKind workload = WorkloadKind::kYcsb;
  YcsbConfig ycsb;
  TpccConfig tpcc;
  uint32_t num_clients = 0;  // 0 -> 8 * batch_size (closed loop) / 1M (open)
  // Client-group shard count for the pool (--client-groups); 1 reproduces
  // the historical single-shard pool byte-for-byte.
  uint32_t client_groups = 1;
  // Traffic model (--arrival / --offered-load); closed loop by default.
  ArrivalConfig arrival;
  uint64_t seed = 1;

  // Faults (Fig. 10).
  Fault fault = Fault::kNone;
  uint32_t num_faulty = 0;
  uint32_t rollback_victims = 0;

  // Composable per-epoch adversary strategy for the coalition (--strategy;
  // grammar in runtime/adversary.h). Generalizes the fixed Fault attacks:
  // the same `num_faulty` replicas follow this schedule. epoch_length 0 is
  // resolved to (f+1) * view_timer at setup.
  StrategySchedule strategy;

  // Epoch-based committee reconfiguration (--reconfig; grammar in
  // consensus/committee.h). All `n` nodes are allocated up front; the
  // schedule switches each between member and standby at pacemaker epoch
  // boundaries. views_per_epoch 0 is resolved to f+1 at setup; every member
  // id must be < n. An empty schedule is the static full committee.
  CommitteeSchedule reconfig;

  // Liveness-oracle thresholds (runtime/liveness.h); 0 = auto. Only read
  // when oracle_enabled.
  uint64_t liveness_k = 0;
  SimTime liveness_grace = 0;

  // Message-delay injection (Fig. 9): extra one-way delay on traffic to or
  // from the last `num_impaired` replicas.
  SimTime inject_delay = 0;
  uint32_t num_impaired = 0;

  // Ablation hooks.
  bool speculation_enabled = true;
  bool trusted_leader_enabled = true;
  // Test hook: record accepted (txn, block) pairs in the client pool.
  bool track_accepted = false;

  CostModel costs;
  // Authenticator wire encoding (--cert-scheme): what one signature share or
  // certificate costs in bytes through the bandwidth model. Pure size axis —
  // the consensus contract is identical under every scheme.
  CertScheme cert_scheme = CertScheme::kMultisigVector;
  double bandwidth_bytes_per_us = 2000.0;

  // Intra-experiment parallelism: worker threads for the simulator's event
  // loop (--sim-jobs). 1 = the classic single-threaded loop; any value
  // yields byte-identical results (see docs/ARCHITECTURE.md, determinism
  // contract).
  uint32_t sim_jobs = 1;

  // Conservative lookahead window for the parallel event loop (--lookahead).
  // kAuto derives the safe horizon from the topology's minimum cross-shard
  // delivery latency plus the bandwidth serialization floor; any setting is
  // byte-identical to any other. Only consulted when sim_jobs > 1, and
  // forced off (tick-parallel) while event_cap is set.
  LookaheadSpec lookahead;

  // Safety valve against runaway event storms: 0 = unlimited. A truncated
  // run is reported via ExperimentResult::event_cap_hit, never silently.
  uint64_t event_cap = 0;

  // Arms the online invariant oracle (runtime/oracle.h): every protocol core
  // and the client pool report state transitions into it, and violations of
  // the paper's safety claims fail the run with a (config, seed, event)
  // diagnostic. Pure observer: enabling it never changes simulation results.
  bool oracle_enabled = false;

  // Test-only mutation hook (see docs/ARCHITECTURE.md, "Mutation self-test"):
  // injects an equivocation-commit bug into the streamlined HotStuff-1 core
  // so tests can prove the oracle actually fires. Never enable outside tests.
  bool test_break_safety = false;
  // Test-only mutation hook: stalls the pacemaker's epoch synchronization
  // after epoch 0 (see ConsensusConfig::test_break_liveness) to prove the
  // liveness oracle's progress monitor fires. Never enable outside tests.
  bool test_break_liveness = false;
  // Test-only mutation hook: a replica voted out at an epoch boundary forges
  // a conflicting commit at its last height and halts (see
  // ConsensusConfig::test_break_reconfig). End-of-run CheckSafety skips
  // crashed replicas, so only the oracle's cross-epoch committed-block
  // lattice can catch it. Never enable outside tests.
  bool test_break_reconfig = false;
};

struct ExperimentResult {
  std::string protocol;
  double throughput_tps = 0;
  double avg_latency_ms = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  double p999_latency_ms = 0;
  uint64_t accepted = 0;
  uint64_t accepted_speculative = 0;
  uint64_t resubmissions = 0;
  // Transactions still waiting in the submission queue at the end of the
  // run. Grows without bound past the saturation knee in open-loop runs.
  uint64_t backlog = 0;
  uint64_t committed_blocks = 0;  // at observer replica 0
  uint64_t committed_txns = 0;
  uint64_t views = 0;             // views entered at observer
  uint64_t slots = 0;             // total slots proposed (all replicas)
  uint64_t timeouts = 0;
  uint64_t rollback_events = 0;   // across correct replicas
  uint64_t blocks_rolled_back = 0;
  uint64_t rejects = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  // Reconfiguration: membership changes the observer replica actually lived
  // through (schedule steps whose first view was entered), and the size of
  // the committee active in the observer's final view. 0 / base n for runs
  // without a schedule. Deterministic like every other consensus metric.
  uint64_t committee_changes = 0;
  uint32_t final_committee_n = 0;
  bool safety_ok = true;  // committed prefixes agree across correct replicas
  bool event_cap_hit = false;  // simulator stopped at its event cap: truncated run
  // Simulator events executed during the whole run (setup + warmup +
  // measurement). Deterministic: identical at any jobs/sim-jobs/lookahead.
  uint64_t events_processed = 0;
  // Online invariant-oracle verdict (0 and empty when the oracle is off or
  // the run is clean). Deterministic: identical at any jobs/sim-jobs/lookahead.
  uint64_t oracle_violations = 0;
  std::string oracle_first_violation;
  // Online liveness-oracle verdict (runtime/liveness.h), same determinism
  // contract as the safety oracle's fields above.
  uint64_t liveness_violations = 0;
  std::string liveness_first_violation;
  // True when event_cap forced the parallel executor to silently fall back
  // to tick-parallel scheduling (cap accounting needs the serial tick
  // boundary, so windowed lookahead is disabled while a cap is set).
  // Executor-shape-dependent by definition: excluded from CSV/JSON emitters
  // and from result-equality checks, surfaced as a visible warning instead.
  bool cap_parallelism_degraded = false;
  // Real (wall-clock) milliseconds spent executing the run. The only
  // nondeterministic field; excluded from every deterministic emitter, used
  // by the par_speedup scenario.
  double wall_ms = 0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  /// Builds the whole system (callable once; Run() calls it lazily).
  void Setup();

  /// Runs warmup + measurement and returns the collected result.
  ExperimentResult Run();

  // --- test access ------------------------------------------------------------
  sim::Simulator& simulator() { return *sim_; }
  sim::Network& network() { return *net_; }
  ClientPool& clients() { return *clients_; }
  const KeyRegistry& registry() const { return *registry_; }
  std::vector<std::unique_ptr<ReplicaBase>>& replicas() { return replicas_; }
  const ExperimentConfig& config() const { return config_; }
  /// Null unless config().oracle_enabled.
  InvariantOracle* oracle() { return oracle_.get(); }
  /// Null unless config().oracle_enabled.
  LivenessOracle* liveness_oracle() { return liveness_.get(); }

  /// Committed-prefix agreement across correct replicas (Theorem B.5 check).
  bool CheckSafety() const;

 private:
  std::unique_ptr<ReplicaBase> MakeReplica(ReplicaId id, const ConsensusConfig& cc,
                                           KvState state);

  ExperimentConfig config_;
  bool setup_done_ = false;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<KeyRegistry> registry_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ClientPool> clients_;
  std::unique_ptr<InvariantOracle> oracle_;
  std::unique_ptr<LivenessOracle> liveness_;
  bool cap_parallelism_degraded_ = false;
  std::shared_ptr<const CommitteeSchedule> committee_;  // resolved; null = static
  AdversaryPlan plan_;
  std::vector<std::unique_ptr<ReplicaBase>> replicas_;
};

/// The configuration as a copy-pasteable hs1sim command line: every `repro`
/// knob (runtime/config_knob.h) as `--flag=value`, in table order. Fields
/// no flag sets are not in it. Embedded in oracle diagnostics so a
/// violation names its repro.
std::string DescribeConfig(const ExperimentConfig& config);

/// Convenience: run one configuration and return the result.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Reproduces one figure data point the way the paper measures (§7 Metrics):
/// *throughput* is the saturated maximum (deep closed-loop client pool),
/// while *client latency* is measured at a light operating point (one batch
/// of transactions in flight), where queueing does not mask the protocols'
/// phase-count differences. Returns the saturation result with its latency
/// fields replaced by the light-load measurements.
ExperimentResult RunPaperPoint(const ExperimentConfig& config);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_EXPERIMENT_H_
