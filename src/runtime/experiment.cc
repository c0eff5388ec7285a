#include "runtime/experiment.h"

#include <chrono>

#include "baselines/hotstuff.h"
#include "baselines/hotstuff2.h"
#include "common/logging.h"
#include "common/parse.h"
#include "core/hotstuff1_basic.h"
#include "core/hotstuff1_slotted.h"
#include "core/hotstuff1_streamlined.h"
#include "runtime/liveness.h"
#include "runtime/oracle.h"

namespace hotstuff1 {

const char* ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kHotStuff: return "HotStuff";
    case ProtocolKind::kHotStuff2: return "HotStuff-2";
    case ProtocolKind::kHotStuff1Basic: return "HotStuff-1 (basic)";
    case ProtocolKind::kHotStuff1: return "HotStuff-1";
    case ProtocolKind::kHotStuff1Slotted: return "HotStuff-1 (slotting)";
  }
  return "?";
}

bool IsSpeculative(ProtocolKind kind) {
  return kind == ProtocolKind::kHotStuff1Basic || kind == ProtocolKind::kHotStuff1 ||
         kind == ProtocolKind::kHotStuff1Slotted;
}

bool ParseLookahead(const std::string& s, LookaheadSpec* out) {
  int64_t us = 0;
  if (s == "auto") {
    *out = LookaheadSpec{LookaheadMode::kAuto, 0};
  } else if (s == "off" || (ParseNumber(s, &us) && us == 0)) {
    *out = LookaheadSpec{LookaheadMode::kOff, 0};
  } else if (us > 0) {
    *out = LookaheadSpec{LookaheadMode::kWindow, us};
  } else {
    return false;
  }
  return true;
}

std::string FormatLookahead(const LookaheadSpec& spec) {
  switch (spec.mode) {
    case LookaheadMode::kAuto: return "auto";
    case LookaheadMode::kOff: return "off";
    case LookaheadMode::kWindow: return std::to_string(spec.window);
  }
  return "?";
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}
Experiment::~Experiment() = default;

std::unique_ptr<ReplicaBase> Experiment::MakeReplica(ReplicaId id,
                                                     const ConsensusConfig& cc,
                                                     KvState state) {
  switch (config_.protocol) {
    case ProtocolKind::kHotStuff:
      return std::make_unique<HotStuffReplica>(id, cc, net_.get(), registry_.get(),
                                               clients_.get(), clients_.get(),
                                               std::move(state));
    case ProtocolKind::kHotStuff2:
      return std::make_unique<HotStuff2Replica>(id, cc, net_.get(), registry_.get(),
                                                clients_.get(), clients_.get(),
                                                std::move(state));
    case ProtocolKind::kHotStuff1Basic:
      return std::make_unique<HotStuff1BasicReplica>(id, cc, net_.get(),
                                                     registry_.get(), clients_.get(),
                                                     clients_.get(), std::move(state));
    case ProtocolKind::kHotStuff1:
      return std::make_unique<HotStuff1StreamlinedReplica>(
          id, cc, net_.get(), registry_.get(), clients_.get(), clients_.get(),
          std::move(state));
    case ProtocolKind::kHotStuff1Slotted:
      return std::make_unique<HotStuff1SlottedReplica>(
          id, cc, net_.get(), registry_.get(), clients_.get(), clients_.get(),
          std::move(state));
  }
  return nullptr;
}

void Experiment::Setup() {
  if (setup_done_) return;
  setup_done_ = true;
  const uint32_t n = config_.n;
  if (config_.topology.n == 0) config_.topology = sim::Topology::Lan(n);
  HS1_CHECK_EQ(config_.topology.n, n);

  sim_ = std::make_unique<sim::Simulator>();
  if (config_.event_cap > 0) sim_->SetEventCap(config_.event_cap);
  if (config_.sim_jobs > 1) sim_->SetJobs(static_cast<int>(config_.sim_jobs));
  sim::NetworkConfig net_cfg;
  net_cfg.bandwidth_bytes_per_us = config_.bandwidth_bytes_per_us;
  net_cfg.seed = config_.seed;
  net_ = std::make_unique<sim::Network>(sim_.get(), n, net_cfg);
  config_.topology.Apply(net_.get());

  // Fig. 9 delay injection: the last `num_impaired` replicas are impacted.
  for (uint32_t i = 0; i < config_.num_impaired && i < n; ++i) {
    net_->ImpairNode(n - 1 - i, config_.inject_delay);
  }

  registry_ = std::make_unique<KeyRegistry>(n, config_.seed ^ 0x5e17c0defeedULL);

  if (config_.workload == WorkloadKind::kYcsb) {
    workload_ = std::make_unique<YcsbWorkload>(config_.ycsb);
  } else {
    workload_ = std::make_unique<TpccWorkload>(config_.tpcc);
  }

  // Clients sit in `client_region`; their delay to each replica follows the
  // topology's inter-region latency.
  std::vector<SimTime> client_lat(n);
  for (uint32_t r = 0; r < n; ++r) {
    client_lat[r] =
        config_.topology.region_latency[config_.client_region]
                                       [config_.topology.region_of[r]];
  }
  // Fig. 9 semantics: delays are injected on *all* traffic to and from the
  // impacted replicas, including client requests and responses.
  for (uint32_t i = 0; i < config_.num_impaired && i < n; ++i) {
    client_lat[n - 1 - i] += config_.inject_delay;
  }
  ClientPoolConfig cp;
  // Open loop defaults to a million-strong population: client records are
  // lazy, so the figure is a label space, not a memory commitment.
  const uint32_t default_clients =
      config_.arrival.kind == ArrivalKind::kClosedLoop ? 8 * config_.batch_size
                                                       : 1'000'000;
  cp.num_clients = config_.num_clients > 0 ? config_.num_clients : default_clients;
  cp.groups = config_.client_groups;
  cp.arrival = config_.arrival;
  const uint32_t f = (n - 1) / 3;
  cp.quorum_commit = f + 1;
  cp.quorum_speculative =
      (IsSpeculative(config_.protocol) && config_.speculation_enabled) ? n - f : 0;
  cp.resubmit_timeout = std::max<SimTime>(Millis(100), 8 * config_.view_timer);
  cp.seed = config_.seed * 1000003 + 17;
  cp.track_accepted = config_.track_accepted;
  clients_ = std::make_unique<ClientPool>(sim_.get(), workload_.get(), cp,
                                          std::move(client_lat));

  // Conservative lookahead horizon: no event may schedule onto another
  // shard sooner than the fastest cross-shard path — a network delivery
  // (min pairwise latency + egress serialization floor) or a replica->
  // client response hop. Faults, jitter, and impairments only add delay.
  SimTime lookahead_window = 0;
  switch (config_.lookahead.mode) {
    case LookaheadMode::kOff:
      break;
    case LookaheadMode::kWindow:
      lookahead_window = config_.lookahead.window;
      break;
    case LookaheadMode::kAuto:
      lookahead_window =
          std::min(net_->MinDeliveryLatency(), clients_->MinResponseLatency());
      break;
  }
  sim_->SetLookahead(lookahead_window);

  ConsensusConfig cc = ConsensusConfig::ForN(n);
  cc.batch_size = config_.batch_size;
  cc.delta = config_.delta;
  cc.view_timer = config_.view_timer;
  cc.costs = config_.costs;
  cc.cert_scheme = config_.cert_scheme;
  cc.max_slots_per_view = config_.max_slots;
  cc.speculation_enabled = config_.speculation_enabled;
  cc.trusted_leader_enabled = config_.trusted_leader_enabled;
  cc.test_break_safety = config_.test_break_safety;
  cc.test_break_liveness = config_.test_break_liveness;
  cc.test_break_reconfig = config_.test_break_reconfig;

  // Committee reconfiguration: resolve the schedule's epoch geometry against
  // the allocated pool (f+1 views per epoch, matching the pacemaker's
  // Wish/TC boundaries) and check every member fits the allocation. The
  // shared schedule threads into every replica's config and pacemaker.
  if (!config_.reconfig.empty()) {
    CommitteeSchedule sched = config_.reconfig;
    if (sched.views_per_epoch == 0) sched.views_per_epoch = f + 1;
    HS1_CHECK_EQ(sched.views_per_epoch, static_cast<uint64_t>(f) + 1)
        << "reconfig epoch geometry must match the pacemaker's";
    HS1_CHECK_LT(sched.MaxMember(), n) << "committee member outside allocation";
    committee_ = std::make_shared<const CommitteeSchedule>(std::move(sched));
    cc.committee = committee_;
  }

  StrategySchedule schedule = config_.strategy;
  if (!schedule.empty() && schedule.epoch_length <= 0) {
    // Auto epoch: one pacemaker epoch (f+1 views) of wall-clock time.
    schedule.epoch_length = static_cast<SimTime>(f + 1) * config_.view_timer;
  }
  plan_ = MakeAdversaryPlan(n, config_.fault, config_.num_faulty,
                            config_.rollback_victims, std::move(schedule));

  // The event cap needs the serial tick boundary for exact accounting, so
  // the parallel executor silently pins itself to tick-parallel while a cap
  // is set — visible here instead of silent (EmitTables / RunScenario warn).
  cap_parallelism_degraded_ =
      config_.event_cap > 0 && config_.sim_jobs > 1 && lookahead_window > 0;

  if (config_.oracle_enabled) {
    std::string summary = DescribeConfig(config_);  // shared by both oracles
    InvariantOracle::Setup os;
    os.n = n;
    os.fault = config_.fault;
    os.rollback_victims = plan_.rollback_victims;  // post-clamp
    os.faulty_mask = plan_.faulty_mask;
    os.schedule = plan_.schedule;
    os.committee = committee_;
    os.config_summary = summary;
    oracle_ = std::make_unique<InvariantOracle>(sim_.get(), std::move(os));
    clients_->SetOracle(oracle_.get());

    LivenessOracle::Setup ls;
    ls.n = n;
    ls.faulty_mask = plan_.faulty_mask;
    ls.gst = plan_.schedule ? plan_.schedule->ResolvedGst() : 0;
    ls.k = config_.liveness_k;
    ls.grace = config_.liveness_grace;
    ls.view_timer = config_.view_timer;
    ls.config_summary = std::move(summary);
    liveness_ = std::make_unique<LivenessOracle>(sim_.get(), std::move(ls));
    net_->SetGstCallback([this]() { liveness_->OnGstReached(); });
  }

  // GST barrier event: scheduled whenever the schedule promises a concrete
  // stabilization time, independent of the oracle toggle (the notification
  // is a no-op without a registered callback), so enabling the oracle never
  // changes the event stream it observes.
  const SimTime gst = plan_.schedule ? plan_.schedule->ResolvedGst() : 0;
  if (gst > 0 && gst < StrategySchedule::kGstNever) {
    sim_->At(gst, [this]() { net_->NotifyGstReached(); });
  }

  // kActDelay entries are realized as Network fault rules on the coalition's
  // outbound traffic, installed/removed by barrier (kShardSerial) events at
  // the entry's epoch boundaries. FaultRule delays are >= 0, so the
  // lookahead horizon derived above stays valid for the whole run.
  if (plan_.schedule && plan_.schedule->HasAction(kActDelay)) {
    std::vector<bool> from(n, false);
    for (ReplicaId r : plan_.members) from[r] = true;
    const std::vector<bool> to(n, true);
    for (const StrategyEntry& e : plan_.schedule->entries) {
      if (!(e.actions & kActDelay)) continue;
      const SimTime start =
          static_cast<SimTime>(e.from_epoch) * plan_.schedule->epoch_length;
      auto rule_id = std::make_shared<int>(-1);
      sim_->At(start, [this, from, to, delay = e.delay, rule_id]() {
        sim::FaultRule rule;
        rule.from_match = from;
        rule.to_match = to;
        rule.extra_delay = delay;
        *rule_id = net_->AddRule(std::move(rule));
      });
      if (e.to_epoch != kEpochForever) {
        const SimTime end =
            static_cast<SimTime>(e.to_epoch) * plan_.schedule->epoch_length;
        sim_->At(end, [this, rule_id]() {
          if (*rule_id >= 0) net_->RemoveRule(*rule_id);
        });
      }
    }
  }

  // Environmental interference (partition / correlated regional outage / WAN
  // jitter) realizes the same way: barrier events install FaultRules at the
  // entry's start and remove them at its end (the heal time). All three only
  // drop or add delay, so the lookahead horizon stays valid; none of them is
  // coalition-bound — they model the network, not the adversary's replicas.
  if (plan_.schedule &&
      plan_.schedule->HasAction(kActPartition | kActOutage | kActJitter)) {
    for (const StrategyEntry& e : plan_.schedule->entries) {
      std::vector<sim::FaultRule> rules;
      if (e.actions & kActPartition) {
        // One rule per group: drop everything it sends to the other groups.
        // Nodes in no group keep talking to everyone.
        for (size_t g = 0; g < e.partition.size(); ++g) {
          std::vector<bool> from(n, false), others(n, false);
          for (const uint32_t id : e.partition[g]) {
            if (id < n) from[id] = true;
          }
          for (size_t h = 0; h < e.partition.size(); ++h) {
            if (h == g) continue;
            for (const uint32_t id : e.partition[h]) {
              if (id < n) others[id] = true;
            }
          }
          sim::FaultRule rule;
          rule.from_match = std::move(from);
          rule.to_match = std::move(others);
          rule.drop_prob = 1.0;
          rules.push_back(std::move(rule));
        }
      }
      if (e.actions & kActOutage) {
        // The listed regions fall off the map: all their traffic, both
        // directions, is dropped until the entry heals.
        std::vector<bool> member(n, false);
        for (uint32_t r = 0; r < n; ++r) {
          for (const uint32_t region : e.outage_regions) {
            if (config_.topology.region_of[r] == region) member[r] = true;
          }
        }
        sim::FaultRule out_rule;
        out_rule.from_match = member;
        out_rule.to_match = std::vector<bool>(n, true);
        out_rule.drop_prob = 1.0;
        rules.push_back(std::move(out_rule));
        sim::FaultRule in_rule;
        in_rule.from_match = std::vector<bool>(n, true);
        in_rule.to_match = std::move(member);
        in_rule.drop_prob = 1.0;
        rules.push_back(std::move(in_rule));
      }
      if (e.actions & kActJitter) {
        sim::FaultRule rule;
        rule.from_match = std::vector<bool>(n, true);
        rule.to_match = std::vector<bool>(n, true);
        rule.extra_jitter_frac = static_cast<double>(e.jitter_pct) / 100.0;
        rules.push_back(std::move(rule));
      }
      if (rules.empty()) continue;
      const SimTime start =
          static_cast<SimTime>(e.from_epoch) * plan_.schedule->epoch_length;
      auto rule_ids = std::make_shared<std::vector<int>>();
      sim_->At(start, [this, rules, rule_ids]() {
        for (const sim::FaultRule& r : rules) rule_ids->push_back(net_->AddRule(r));
      });
      if (e.to_epoch != kEpochForever) {
        const SimTime end =
            static_cast<SimTime>(e.to_epoch) * plan_.schedule->epoch_length;
        sim_->At(end, [this, rule_ids]() {
          for (const int id : *rule_ids) net_->RemoveRule(id);
          rule_ids->clear();
        });
      }
    }
  }

  replicas_.reserve(n);
  for (ReplicaId id = 0; id < n; ++id) {
    // Starts empty: absent keys read as zero, and the table grows with the
    // keys the run actually writes.
    replicas_.push_back(MakeReplica(id, cc, KvState()));
    replicas_.back()->SetOracle(oracle_.get());
    replicas_.back()->SetLivenessOracle(liveness_.get());
    const AdversarySpec spec = plan_.SpecFor(id);
    if (spec.fault == Fault::kCrash) {
      net_->Crash(id);
      replicas_.back()->SetCrashed();
    } else if (spec.fault != Fault::kNone || spec.schedule) {
      replicas_.back()->SetAdversary(spec);
    }
  }
}

ExperimentResult Experiment::Run() {
  Setup();
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto& r : replicas_) {
    if (!r->crashed()) r->Start();
  }
  clients_->Start();

  sim_->RunUntil(config_.warmup);
  clients_->ResetStats();
  const uint64_t committed_before = replicas_[0]->metrics().txns_committed;
  const uint64_t views_before = replicas_[0]->metrics().views_entered;

  sim_->RunUntil(config_.warmup + config_.duration);

  ExperimentResult res;
  res.protocol = ProtocolName(config_.protocol);
  res.accepted = clients_->accepted();
  res.accepted_speculative = clients_->accepted_speculative();
  res.resubmissions = clients_->resubmissions();
  res.throughput_tps =
      static_cast<double>(res.accepted) / ToSeconds(config_.duration);
  const LatencyRecorder lat = clients_->latencies();
  res.avg_latency_ms = lat.AvgMs();
  res.p50_latency_ms = lat.PercentileMs(0.50);
  res.p99_latency_ms = lat.PercentileMs(0.99);
  res.p999_latency_ms = lat.PercentileMs(0.999);
  res.backlog = clients_->backlog();
  res.committed_blocks = replicas_[0]->metrics().blocks_committed;
  res.committed_txns = replicas_[0]->metrics().txns_committed - committed_before;
  res.views = replicas_[0]->metrics().views_entered - views_before;
  res.messages_sent = net_->messages_sent();
  res.bytes_sent = net_->bytes_sent();
  const uint64_t final_view = replicas_[0]->view();
  if (committee_) {
    res.final_committee_n = committee_->AtView(final_view).n();
    for (size_t i = 1; i < committee_->steps.size(); ++i) {
      const uint64_t first_view = static_cast<uint64_t>(
          committee_->steps[i].from_epoch) * committee_->views_per_epoch;
      if (first_view <= final_view &&
          committee_->steps[i].committee != committee_->steps[i - 1].committee) {
        ++res.committee_changes;
      }
    }
  } else {
    res.final_committee_n = config_.n;
  }
  for (uint32_t id = 0; id < config_.n; ++id) {
    const auto& m = replicas_[id]->metrics();
    res.slots += m.slots_proposed;
    res.timeouts += m.timeouts;
    res.rejects += m.rejects_sent;
    if (!plan_.faulty_mask || !(*plan_.faulty_mask)[id]) {
      res.rollback_events += m.rollback_events;
      res.blocks_rolled_back += m.blocks_rolled_back;
    }
  }
  res.safety_ok = CheckSafety();
  res.event_cap_hit = sim_->cap_hit();
  res.events_processed = sim_->EventsProcessed();
  if (oracle_) {
    res.oracle_violations = oracle_->violations();
    res.oracle_first_violation = oracle_->FirstDiagnostic();
  }
  if (liveness_) {
    liveness_->Finalize(config_.warmup + config_.duration, sim_->cap_hit());
    res.liveness_violations = liveness_->violations();
    res.liveness_first_violation = liveness_->FirstDiagnostic();
  }
  res.cap_parallelism_degraded = cap_parallelism_degraded_;
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return res;
}

bool Experiment::CheckSafety() const {
  // Theorem B.5: committed blocks at equal positions agree across correct
  // replicas.
  const std::vector<BlockPtr>* reference = nullptr;
  for (uint32_t id = 0; id < config_.n; ++id) {
    if (replicas_[id]->crashed()) continue;
    if (plan_.faulty_mask && (*plan_.faulty_mask)[id]) continue;
    const auto& chain = replicas_[id]->ledger().committed_chain();
    if (reference == nullptr) {
      reference = &chain;
      continue;
    }
    const size_t common = std::min(reference->size(), chain.size());
    for (size_t h = 0; h < common; ++h) {
      if ((*reference)[h]->hash() != chain[h]->hash()) return false;
    }
  }
  return true;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  Experiment exp(config);
  return exp.Run();
}

ExperimentResult RunPaperPoint(const ExperimentConfig& config) {
  ExperimentConfig sat = config;
  if (sat.num_clients == 0) sat.num_clients = 8 * sat.batch_size;
  ExperimentResult result = RunExperiment(sat);

  ExperimentConfig light = config;
  light.num_clients = std::max<uint32_t>(16, config.batch_size);
  const ExperimentResult lat = RunExperiment(light);
  result.avg_latency_ms = lat.avg_latency_ms;
  result.p50_latency_ms = lat.p50_latency_ms;
  result.p99_latency_ms = lat.p99_latency_ms;
  result.p999_latency_ms = lat.p999_latency_ms;
  result.safety_ok = result.safety_ok && lat.safety_ok;
  result.event_cap_hit = result.event_cap_hit || lat.event_cap_hit;
  result.oracle_violations += lat.oracle_violations;
  if (result.oracle_first_violation.empty()) {
    result.oracle_first_violation = lat.oracle_first_violation;
  }
  result.liveness_violations += lat.liveness_violations;
  if (result.liveness_first_violation.empty()) {
    result.liveness_first_violation = lat.liveness_first_violation;
  }
  result.cap_parallelism_degraded =
      result.cap_parallelism_degraded || lat.cap_parallelism_degraded;
  result.wall_ms += lat.wall_ms;
  return result;
}

}  // namespace hotstuff1
