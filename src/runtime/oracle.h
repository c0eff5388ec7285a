// Online invariant oracle: a passive observer every protocol core and the
// client pool report into at each state transition, checking the paper's
// safety claims *while the run executes* instead of as an end-of-run prefix
// comparison:
//
//   * commit-conflict   - no two correct replicas commit different blocks at
//                         the same height (Theorem B.5, online form);
//   * commit-chain      - each correct replica's commits advance height by
//                         exactly one and hash-link to its previous commit,
//                         and every committed block is certified (a slotted
//                         carry block is admitted when the next commit is its
//                         certified first-slot child, §6.1);
//   * spec-contradiction- a speculative response issued by a correct replica
//                         that is not a designated rollback victim is never
//                         contradicted by a conflicting commit at the same
//                         height (the speculation rules of §3/§4 make
//                         speculative responses final);
//   * client-accept     - a block a client accepted (speculatively or
//                         committed, Cor. B.10) never conflicts with the
//                         committed lattice;
//   * unexpected-rollback - rollbacks (Def. 4.7) only occur under
//                         kRollbackAttack and only at designated victims;
//   * view-monotonic    - views entered by a correct replica strictly
//                         increase; formed certificates rank monotonically.
//
// A violation is reported immediately (HS1_LOG_ERROR) with a reproducible
// `(config, seed, event)` diagnostic and counted into
// ExperimentResult::oracle_violations, so a buggy run fails loudly instead
// of emitting a silently wrong CSV row.
//
// Threading / determinism: oracle state is one shared domain in the
// Simulator::SyncShared sense (docs/ARCHITECTURE.md, "Shared domains").
// Events arrive from many shards — each replica's shard, the client pool's
// shard — so every entry point gates on SyncShared before touching state:
// earlier events have completed, mutations happen in exact serial event
// order, and the violation log, counters and diagnostics are byte-identical
// at any --jobs x --sim-jobs x --lookahead. The oracle never schedules
// events, draws randomness, or charges CPU, so enabling it cannot perturb
// the simulation it observes.

#ifndef HOTSTUFF1_RUNTIME_ORACLE_H_
#define HOTSTUFF1_RUNTIME_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/certificate.h"
#include "consensus/committee.h"
#include "consensus/config.h"
#include "ledger/block.h"
#include "sim/simulator.h"

namespace hotstuff1 {

class InvariantOracle {
 public:
  /// What the oracle must know about the run to judge events: the committee,
  /// the adversary placement (faulty replicas are exempt from checks — they
  /// may do anything), which correct replicas the rollback attack designates
  /// as victims, and the (config, seed) repro for diagnostics.
  struct Setup {
    uint32_t n = 0;
    Fault fault = Fault::kNone;
    uint32_t rollback_victims = 0;
    std::shared_ptr<const std::vector<bool>> faulty_mask;  // null = all correct
    /// Resolved strategy schedule, when the run uses one; an equivocate
    /// entry designates rollback victims exactly like kRollbackAttack.
    std::shared_ptr<const StrategySchedule> schedule;
    /// Resolved committee schedule, when the run reconfigures (null =
    /// static). The committed-block lattice is keyed by chain height and
    /// deliberately NOT reset at membership changes: Theorem B.5 agreement
    /// binds the whole chain, so a replica voted out in epoch e must still
    /// agree with blocks committed by the epoch-e+1 committee at heights it
    /// ever speaks for. End-of-run CheckSafety cannot see this (it skips
    /// crashed/out replicas); only this cross-epoch lattice can.
    std::shared_ptr<const CommitteeSchedule> committee;
    std::string config_summary;  // repro: DescribeConfig's flags, seed included
  };

  InvariantOracle(sim::Simulator* sim, Setup setup);

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  // --- event API (called from replica / client-pool events) -------------------
  void OnViewEntered(ReplicaId replica, uint64_t view);
  void OnCertificateFormed(ReplicaId replica, const Certificate& cert);
  void OnBlockCommitted(ReplicaId replica, const BlockPtr& block);
  void OnSpeculativeResponse(ReplicaId replica, const BlockPtr& block);
  /// The attacking leader split proposals at `view`: every designated victim
  /// now has an outstanding misleading campaign at that view. Rollback
  /// legality (Def. 4.7) is judged against these records.
  void OnEquivocationSent(ReplicaId leader, uint64_t view);
  /// `conflict_view` is the chain view of the committed block that displaced
  /// the speculation (NOT the replica's wall-clock view — a backlogged victim
  /// may process the conflicting commit arbitrarily late). Legal only for a
  /// designated victim holding an outstanding campaign record no more than
  /// two epochs older than the conflicting view: one epoch for the faulty
  /// leadership window that planted it plus one epoch of fetch/timeout
  /// recovery slack before honest leaders commit the winning branch.
  void OnRollback(ReplicaId replica, uint64_t blocks_rolled_back,
                  uint64_t conflict_view);
  void OnClientAccept(uint64_t txn_id, const Hash256& block_hash, bool speculative);

  // --- results (read after the run, off the event loop) ------------------------
  uint64_t violations() const { return violation_count_; }
  /// First diagnostic line, empty when clean. At most kMaxStoredViolations
  /// full diagnostics are retained; the count keeps growing past that.
  const std::vector<std::string>& violation_log() const { return violations_; }
  std::string FirstDiagnostic() const {
    return violations_.empty() ? std::string() : violations_.front();
  }
  /// Total events observed; tests use this to prove the plumbing is live.
  uint64_t events_observed() const { return events_; }

  static constexpr size_t kMaxStoredViolations = 16;

 private:
  bool IsFaulty(ReplicaId r) const {
    return setup_.faulty_mask && r < setup_.faulty_mask->size() &&
           (*setup_.faulty_mask)[r];
  }
  bool IsRollbackVictim(ReplicaId r) const {
    return r < victim_mask_.size() && victim_mask_[r];
  }
  /// Pacemaker epoch of a view (f+1 consecutive views per epoch; the
  /// committee schedule, when present, carries the same resolved geometry).
  uint64_t EpochIndex(uint64_t view) const {
    if (setup_.committee && setup_.committee->views_per_epoch > 0) {
      return view / setup_.committee->views_per_epoch;
    }
    const uint32_t f = setup_.n > 0 ? (setup_.n - 1) / 3 : 0;
    return view / (f + 1);
  }
  /// Formats, logs and stores one violation with the (config, seed, event)
  /// diagnostic. Deterministic: every input derives from simulation state.
  void Report(const char* invariant, const std::string& detail);

  /// Global commit lattice entry for one chain height.
  struct HeightEntry {
    bool has_commit = false;
    Hash256 committed_hash;
    ReplicaId first_committer = 0;
    /// Speculative responses by correct non-victim replicas issued before a
    /// commit reached this height; cross-checked when the commit lands.
    std::vector<std::pair<ReplicaId, Hash256>> spec_responses;
    /// Distinct block hashes clients accepted at this height (pre-commit).
    std::vector<Hash256> client_accepts;
  };

  /// Per-replica serial state (only that replica's events touch it, but it
  /// lives behind the same SyncShared gate as the global maps).
  struct ReplicaState {
    uint64_t last_view = 0;
    uint64_t committed_height = 0;
    Hash256 committed_hash;  // genesis at start
    bool has_formed_cert = false;
    BlockId last_cert_id{};
    /// A committed block with no certificate of its own, awaiting its
    /// certified first-slot child (slotted carry unit, §6.1).
    BlockPtr pending_uncertified;
  };

  sim::Simulator* sim_;
  Setup setup_;
  std::vector<bool> victim_mask_;
  /// Outstanding misleading-campaign views per victim, appended by
  /// OnEquivocationSent and consumed (oldest matching first) when the
  /// victim's rollback uses them as its Def. 4.7 justification.
  std::vector<std::vector<uint64_t>> misled_views_;

  std::vector<ReplicaState> replicas_;
  std::unordered_map<uint64_t, HeightEntry> heights_;
  std::unordered_set<Hash256, Hash256Hasher> certified_;
  std::unordered_map<Hash256, uint64_t, Hash256Hasher> height_of_;

  uint64_t events_ = 0;
  uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_ORACLE_H_
