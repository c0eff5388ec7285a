// Base class shared by every protocol replica: network wiring, pacemaker,
// block store + ledger, signing/verification with CPU accounting, client
// batching and responses, and block-fetch recovery.

#ifndef HOTSTUFF1_CONSENSUS_REPLICA_H_
#define HOTSTUFF1_CONSENSUS_REPLICA_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "consensus/certificate.h"
#include "consensus/config.h"
#include "consensus/mempool.h"
#include "consensus/messages.h"
#include "consensus/metrics.h"
#include "consensus/pacemaker.h"
#include "ledger/block_store.h"
#include "ledger/ledger.h"
#include "sim/network.h"

namespace hotstuff1 {

class InvariantOracle;  // runtime/oracle.h
class LivenessOracle;   // runtime/liveness.h

class ReplicaBase {
 public:
  ReplicaBase(ReplicaId id, const ConsensusConfig& config, sim::Network* net,
              const KeyRegistry* registry, TransactionSource* source,
              ResponseSink* sink, KvState initial_state);
  virtual ~ReplicaBase() = default;

  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;

  /// Kicks off the pacemaker (epoch-0 synchronization).
  void Start();

  ReplicaId id() const { return id_; }
  const ConsensusConfig& config() const { return config_; }
  uint64_t view() const { return pacemaker_.current_view(); }
  const ReplicaMetrics& metrics() const { return metrics_; }
  const Ledger& ledger() const { return ledger_; }
  const BlockStore& store() const { return store_; }
  const Pacemaker& pacemaker() const { return pacemaker_; }

  void SetAdversary(const AdversarySpec& spec) { adversary_ = spec; }
  const AdversarySpec& adversary() const { return adversary_; }
  /// Attaches the online invariant oracle (null = disabled). The base class
  /// reports views entered, commits, speculative responses and rollbacks;
  /// the protocol cores add certificate formations at their aggregation
  /// sites. Reporting is a pure observation and never alters behaviour.
  void SetOracle(InvariantOracle* oracle) { oracle_ = oracle; }
  /// Attaches the online liveness oracle (null = disabled). The base class
  /// feeds it the same view-entry and commit events as the safety oracle;
  /// like the safety oracle it is a pure observer.
  void SetLivenessOracle(LivenessOracle* oracle) { liveness_ = oracle; }
  /// Marks the replica crashed: it stops processing and sending. (The
  /// network additionally drops its traffic when Network::Crash is used.)
  void SetCrashed() { crashed_ = true; }
  bool crashed() const { return crashed_; }

  /// Protocol name for reports.
  virtual const char* Name() const = 0;

 protected:
  // --- subclass interface ----------------------------------------------------
  virtual void OnEnterView(uint64_t view) = 0;
  virtual void OnViewTimeout(uint64_t view) = 0;
  virtual void OnProtocolMessage(const ConsensusMessage& msg) = 0;
  /// A previously missing block arrived via fetch.
  virtual void OnBlockFetched(const BlockPtr& /*block*/) {}

  // --- transport -------------------------------------------------------------
  void SendTo(ReplicaId to, ConsensusMessagePtr msg);
  void Broadcast(const ConsensusMessagePtr& msg, bool include_self = true);
  /// Sends only to destinations with mask[to] set (conceal-style faults).
  void SendMasked(const std::vector<bool>& mask, const ConsensusMessagePtr& msg);

  // --- crypto with CPU accounting ---------------------------------------------
  void ChargeCpu(SimTime cost) { net_->ConsumeCpu(id_, cost); }
  Signature SignVote(CertKind kind, uint64_t context_view, const BlockId& block_id,
                     const Hash256& block_hash);
  bool CheckVote(CertKind kind, uint64_t context_view, const BlockId& block_id,
                 const Hash256& block_hash, const Signature& sig);
  /// Verifies a certificate, charging CPU only the first time a given
  /// certificate content is seen (verification results are cached, as real
  /// implementations do). On the host, the share MACs of one shared message
  /// run once across all replicas (Certificate::VerifyOnce).
  bool CheckCert(const Certificate& cert);

  // --- clients ---------------------------------------------------------------
  std::vector<Transaction> DrawBatch();
  void RespondToClients(const BlockPtr& block, const std::vector<uint64_t>& results,
                        bool speculative);
  /// Sends committed responses for freshly committed blocks that were not
  /// already answered speculatively, and charges execution CPU.
  void DeliverCommits(const std::vector<ExecResult>& committed);

  /// Commits `target` and every uncommitted ancestor if the full path down
  /// to the committed tip is locally available; otherwise kicks off fetches
  /// for the gap and returns without committing (retried on later commits).
  void TryCommit(const BlockPtr& target);

  // --- recovery ---------------------------------------------------------------
  /// True if the block is locally known; otherwise requests it from `hint`
  /// and f other replicas and returns false (§4.2 Recovery Mechanism).
  bool EnsureBlock(const Hash256& hash, ReplicaId hint);

  /// Justify certificate attached to the proposal of a stored block (what
  /// the commit rules consult). Null when unknown.
  const Certificate* JustifyOf(const Hash256& block_hash) const;
  void RecordJustify(const Hash256& block_hash, const Certificate& justify);

  // --- per-view committee arithmetic -----------------------------------------
  // With a reconfiguration schedule, leadership, quorum sizes, and the right
  // to vote/propose/aggregate are functions of the view's epoch committee;
  // without one they collapse to the static n/f arithmetic. Non-members stay
  // full learners/executors (they receive broadcasts, commit via
  // certificates, answer clients) — they just hold no protocol power.
  ReplicaId LeaderOf(uint64_t v) const {
    if (config_.committee) return config_.committee->LeaderOfView(v);
    return static_cast<ReplicaId>(v % config_.n);
  }
  bool IsLeaderOf(uint64_t v) const { return LeaderOf(v) == id_; }
  uint32_t QuorumOf(uint64_t v) const {
    return config_.committee ? config_.committee->AtView(v).quorum()
                             : config_.quorum();
  }
  uint32_t CommitteeNOf(uint64_t v) const {
    return config_.committee ? config_.committee->AtView(v).n() : config_.n;
  }
  uint32_t CommitteeFOf(uint64_t v) const {
    return config_.committee ? config_.committee->AtView(v).f() : config_.f;
  }
  bool IsMember(uint64_t v, ReplicaId r) const {
    return !config_.committee || config_.committee->AtView(v).Contains(r);
  }
  /// True when this replica holds protocol power (vote/propose/aggregate/
  /// wish) in view `v`.
  bool ActiveInView(uint64_t v) const { return IsMember(v, id_); }

  sim::Simulator* simulator() const { return net_->simulator(); }
  SimTime Now() const { return net_->simulator()->Now(); }

  ReplicaId id_;
  ConsensusConfig config_;
  /// Stamped onto every outgoing message so WireSize charges the configured
  /// authenticator byte shapes (see the transport methods in replica.cc).
  AuthSizeModel auth_model_;
  sim::Network* net_;
  const KeyRegistry* registry_;
  Signer signer_;
  TransactionSource* source_;
  ResponseSink* sink_;

  BlockStore store_;
  Ledger ledger_;
  Pacemaker pacemaker_;
  ReplicaMetrics metrics_;
  AdversarySpec adversary_;
  InvariantOracle* oracle_ = nullptr;
  LivenessOracle* liveness_ = nullptr;
  bool crashed_ = false;
  /// Highest view this replica has timed out of (exitView() semantics:
  /// "disable voting for view v"). During epoch synchronization the
  /// pacemaker's current_view() lingers on the old view until the TC
  /// arrives; voting or aggregating in a view <= exited_view_ would
  /// contradict the NewView message already sent and is forbidden.
  uint64_t exited_view_ = 0;

 private:
  /// Strategy-schedule wire suppression (withhold / target-leader): true when
  /// this (adversarial) replica must drop its outbound message to `to` right
  /// now. Self-delivery is never suppressed — the coalition keeps its own
  /// protocol state while starving everyone else.
  bool SuppressSendTo(ReplicaId to) const;

  /// test_break_reconfig mutation (see ConsensusConfig): on entering the
  /// first view of an epoch that voted this replica out, commit a fabricated
  /// block atop the committed tip and halt. Only the cross-epoch oracle
  /// lattice can catch the resulting conflict.
  void MaybeBreakReconfig(uint64_t view);

  void HandleMessage(sim::NodeId from, const sim::NetMessagePtr& raw);
  void HandleFetchRequest(const FetchRequestMsg& msg);
  void HandleFetchResponse(const FetchResponseMsg& msg);

  std::unordered_set<Hash256, Hash256Hasher> verified_certs_;
  std::unordered_map<Hash256, Certificate, Hash256Hasher> justify_of_;
  // In-flight fetches and when they may be re-issued (requests and
  // responses can be lost; fetches must retry).
  std::unordered_map<Hash256, SimTime, Hash256Hasher> fetch_retry_at_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_REPLICA_H_
