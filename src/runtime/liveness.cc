#include "runtime/liveness.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "consensus/config.h"

namespace hotstuff1 {
namespace {

// Auto thresholds. They must be loose enough that no *legitimate* run can
// trip them — including short fuzz points (~150ms of virtual time) where an
// f-sized crash coalition occupies every early view and the first honest
// commit legitimately takes many view timers — while still bounding how long
// a real post-GST stall can hide. Scenarios that want a sharp detector
// (fig_liveness, the over-threshold fuzz tier) set explicit thresholds
// matched to their own durations.
uint64_t AutoK(uint32_t f) {
  // Within any epoch of f+1 consecutive views at most f have faulty
  // leaders, so a correct commit is never more than ~2(f+1) views away in a
  // legitimate run. The auto threshold carries far more headroom than that
  // bound: the chained baselines can legitimately burn *every* view of a
  // short window on timeouts (an f-sized crash coalition keeps their leaders
  // waiting out the share timer each rotation, fuzz seed 31 at n=4), so k
  // must exceed any view count reachable in a fuzz-sized window. Detectors
  // that want a sharp k set it explicitly.
  return 8ull * (f + 1) + 32;
}

SimTime AutoGrace(uint64_t k, SimTime view_timer) {
  // Long enough that a run must idle for ~2k view timers — beyond any
  // legitimate commit gap — and floored so sub-second smoke windows can
  // never reach it at all.
  return std::max<SimTime>(2 * static_cast<SimTime>(k) * view_timer, Millis(500));
}

}  // namespace

LivenessOracle::LivenessOracle(sim::Simulator* sim, Setup setup)
    : sim_(sim), setup_(std::move(setup)) {
  const uint32_t f = setup_.n > 0 ? (setup_.n - 1) / 3 : 0;
  k_ = setup_.k > 0 ? setup_.k : AutoK(f);
  const SimTime tau = setup_.view_timer > 0 ? setup_.view_timer : Millis(10);
  grace_ = setup_.grace > 0 ? setup_.grace : AutoGrace(k_, tau);
  if (setup_.gst == 0) {
    // Synchronous from the start (no interference schedule): Thm B.8's
    // clock starts immediately, without a GST barrier event.
    gst_reached_ = true;
    gst_time_ = 0;
  }
}

void LivenessOracle::Report(const char* invariant, SimTime t,
                            const std::string& detail) {
  ++violation_count_;
  if (violations_.size() >= kMaxStoredViolations) return;
  std::string diag = "liveness: invariant '";
  diag += invariant;
  diag += "' violated at t=" + std::to_string(t);
  diag += "us event#" + std::to_string(events_);
  diag += ": " + detail;
  diag += " [" + setup_.config_summary + "]";
  HS1_LOG_ERROR() << diag;
  violations_.push_back(std::move(diag));
}

void LivenessOracle::OnViewEntered(ReplicaId replica, uint64_t view) {
  sim_->SyncShared();
  ++events_;
  if (IsFaulty(replica)) return;
  max_view_ = std::max(max_view_, view);
  if (gst_reached_ && max_view_ > progress_view_ + k_) {
    Report("liveness-stall", sim_->Now(),
           "correct replicas reached view " + std::to_string(max_view_) +
               " with no correct commit since view " +
               std::to_string(progress_view_) + " (k=" + std::to_string(k_) +
               " views past GST, Thm B.8)");
    // Re-arm: a persistent stall reports once per k further views instead of
    // once per view entry.
    progress_view_ = max_view_;
  }
}

void LivenessOracle::OnBlockCommitted(ReplicaId replica, const BlockPtr&) {
  sim_->SyncShared();
  ++events_;
  if (IsFaulty(replica)) return;
  last_commit_time_ = sim_->Now();
  progress_view_ = max_view_;
}

void LivenessOracle::OnGstReached() {
  sim_->SyncShared();
  ++events_;
  gst_reached_ = true;
  gst_time_ = sim_->Now();
  // Thm B.8 measures from GST: pre-GST view churn is the adversary's
  // prerogative and must not count against the k-view budget.
  progress_view_ = max_view_;
}

void LivenessOracle::Finalize(SimTime end, bool event_cap_hit) {
  if (finalized_) return;
  finalized_ = true;
  // A cap-truncated run proves nothing about progress; a run whose GST never
  // arrived promised nothing (StrategySchedule::kGstNever).
  if (event_cap_hit || !gst_reached_) return;
  const SimTime base = std::max(last_commit_time_, gst_time_);
  if (end - base >= grace_) {
    Report("liveness-silence", end,
           "no correct commit for " + std::to_string(end - base) +
               "us after GST (t=" + std::to_string(gst_time_) +
               "us, last correct commit t=" + std::to_string(last_commit_time_) +
               "us, grace=" + std::to_string(grace_) + "us)");
  }
}

}  // namespace hotstuff1
