// Pacemaker (Fig. 3): epoch synchronization via Wish/TC, wall-clock view
// schedule, laggard catch-up, and fast-path progress.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "consensus/pacemaker.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hotstuff1 {
namespace {

// Harness: n pacemakers over a simulated network. Each fake replica either
// makes instant progress (calls CompletedView as soon as it enters a view)
// or only advances via timeouts.
class PacemakerHarness {
 public:
  PacemakerHarness(uint32_t n, uint32_t f, SimTime tau, SimTime delta,
                   bool instant_progress)
      : n_(n), registry_(n, 9), net_(&sim_, n) {
    net_.SetAllLatencies(Millis(0.1));
    for (uint32_t i = 0; i < n; ++i) {
      entered_.emplace_back();
      timeouts_.emplace_back();
    }
    for (uint32_t i = 0; i < n; ++i) {
      Pacemaker::Callbacks cb;
      cb.enter_view = [this, i, instant_progress](uint64_t v) {
        entered_[i].push_back(v);
        if (instant_progress) {
          // Simulate an instantly-successful view: complete it right away.
          sim_.After(10, [this, i, v]() {
            if (pacemakers_[i]->current_view() == v) {
              pacemakers_[i]->CompletedView(v + 1);
            }
          });
        }
      };
      cb.view_timeout = [this, i](uint64_t v) {
        timeouts_[i].push_back(v);
        pacemakers_[i]->CompletedView(v + 1);
      };
      cb.send_wish = [this, i](ReplicaId to, std::shared_ptr<WishMsg> m) {
        net_.Send(i, to, std::move(m));
      };
      cb.broadcast_tc = [this, i](std::shared_ptr<TimeoutCertMsg> m) {
        net_.Broadcast(i, m);
      };
      cb.send_tc = [this, i](ReplicaId to, std::shared_ptr<TimeoutCertMsg> m) {
        net_.Send(i, to, std::move(m));
      };
      pacemakers_.push_back(std::make_unique<Pacemaker>(
          &sim_, &registry_, Signer(&registry_, i), n, f, tau, delta, cb));
    }
    for (uint32_t i = 0; i < n; ++i) {
      net_.SetHandler(i, [this, i](sim::NodeId, const sim::NetMessagePtr& raw) {
        const auto* msg = static_cast<const ConsensusMessage*>(raw.get());
        if (msg->type == ConsensusMessage::Type::kWish) {
          pacemakers_[i]->OnWish(static_cast<const WishMsg&>(*msg));
        } else if (msg->type == ConsensusMessage::Type::kTimeoutCert) {
          pacemakers_[i]->OnTimeoutCert(static_cast<const TimeoutCertMsg&>(*msg));
        }
      });
    }
  }

  void StartAll() {
    for (auto& p : pacemakers_) p->Start();
  }

  uint32_t n_;
  KeyRegistry registry_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<Pacemaker>> pacemakers_;
  std::vector<std::vector<uint64_t>> entered_;
  std::vector<std::vector<uint64_t>> timeouts_;
};

// --- Shared Wish/TC verdicts -----------------------------------------------------
// One pacemaker driven by hand: Wish shares and TCs are handed to it directly
// and its TC broadcasts / epoch syncs are counted. A pacemaker over a registry
// from another seed rejects every share, so it tells a memoized verdict
// (passes) from a full check (fails).
class PacemakerVerdictTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kF = 1;
  static constexpr uint64_t kView = 2;  // an epoch boundary (f + 1 = 2)

  PacemakerVerdictTest() : registry_(5, 9), other_(5, 10) {}

  std::unique_ptr<Pacemaker> Make(const KeyRegistry* registry, uint32_t n) {
    Pacemaker::Callbacks cb;
    cb.enter_view = [](uint64_t) {};
    cb.view_timeout = [](uint64_t) {};
    cb.send_wish = [](ReplicaId, std::shared_ptr<WishMsg>) {};
    cb.broadcast_tc = [this](std::shared_ptr<TimeoutCertMsg>) { ++tcs_broadcast_; };
    cb.send_tc = [](ReplicaId, std::shared_ptr<TimeoutCertMsg>) {};
    return std::make_unique<Pacemaker>(&sim_, registry, Signer(registry, 0), n, kF,
                                       Millis(10), Millis(1), cb);
  }

  Signature WishShare(ReplicaId r) const {
    Sha256 ctx;  // Pacemaker::WishDigest
    ctx.Update("hs1-wish");
    ctx.UpdateU64(kView);
    return Signer(&registry_, r).Sign(SignDomain::kWish, ctx.Finish());
  }

  WishMsg Wish(ReplicaId r) const {
    WishMsg msg(r);
    msg.view = kView;
    msg.share = WishShare(r);
    return msg;
  }

  TimeoutCertMsg Tc(std::vector<ReplicaId> signers) const {
    TimeoutCertMsg tc(0);
    tc.view = kView;
    for (ReplicaId r : signers) tc.sigs.push_back(WishShare(r));
    return tc;
  }

  KeyRegistry registry_, other_;
  sim::Simulator sim_;
  int tcs_broadcast_ = 0;
};

TEST_F(PacemakerVerdictTest, WishMemoSkipsOnlyTheVerifiedObject) {
  auto pm = Make(&registry_, 4);  // quorum 3
  const WishMsg w1 = Wish(1);
  pm->OnWish(w1);
  EXPECT_TRUE(w1.share_verified.get());
  // A fresh message with a forged share is checked in full and dropped, so
  // it cannot complete the quorum that one more real share would.
  WishMsg forged = Wish(2);
  forged.share.mac = w1.share.mac;
  pm->OnWish(forged);
  EXPECT_FALSE(forged.share_verified.get());
  pm->OnWish(Wish(3));
  EXPECT_EQ(tcs_broadcast_, 0);
  pm->OnWish(Wish(2));
  EXPECT_EQ(tcs_broadcast_, 1);
  // The memo is what a second aggregator trusts: one whose registry rejects
  // every share still counts the verified message, but not a fresh message
  // with the same content.
  auto blind = Make(&other_, 4);
  blind->OnWish(w1);
  const WishMsg fresh = Wish(2);
  blind->OnWish(fresh);
  EXPECT_FALSE(fresh.share_verified.get());
  EXPECT_EQ(blind->wish_state_size(), 1u);
}

TEST_F(PacemakerVerdictTest, TcMemoRechecksQuorumSize) {
  const TimeoutCertMsg tc = Tc({1, 2, 3});
  auto q3 = Make(&registry_, 4);
  q3->OnTimeoutCert(tc);
  EXPECT_EQ(q3->epochs_synchronized(), 1u);
  EXPECT_TRUE(tc.shares_verified.get());
  auto q4 = Make(&registry_, 5);  // n - f = 4: the memoized TC is too small
  q4->OnTimeoutCert(tc);
  EXPECT_EQ(q4->epochs_synchronized(), 0u);
  // A memo hit skips the shares (a registry that rejects them all still
  // accepts), but a fresh TC with a forged share is checked in full.
  auto blind = Make(&other_, 4);
  blind->OnTimeoutCert(tc);
  EXPECT_EQ(blind->epochs_synchronized(), 1u);
  TimeoutCertMsg forged = Tc({1, 2, 3});
  forged.sigs[1].mac = forged.sigs[0].mac;
  auto fresh = Make(&registry_, 4);
  fresh->OnTimeoutCert(forged);
  EXPECT_EQ(fresh->epochs_synchronized(), 0u);
  EXPECT_FALSE(forged.shares_verified.get());
}

TEST_F(PacemakerVerdictTest, TcWithDuplicateSignerNeverSetsItsMemo) {
  auto pm = Make(&registry_, 4);
  for (const std::vector<ReplicaId>& signers :
       {std::vector<ReplicaId>{1, 2, 2}, std::vector<ReplicaId>{1, 2, 3, 3}}) {
    const TimeoutCertMsg tc = Tc(signers);
    pm->OnTimeoutCert(tc);
    pm->OnTimeoutCert(tc);
    EXPECT_FALSE(tc.shares_verified.get());
  }
  EXPECT_EQ(pm->epochs_synchronized(), 0u);
}

TEST(PacemakerTest, InitialEpochSynchronizesEveryone) {
  PacemakerHarness h(4, 1, Millis(10), Millis(1), /*instant_progress=*/false);
  h.StartAll();
  h.sim_.RunUntil(Millis(5));
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_FALSE(h.entered_[i].empty());
    EXPECT_EQ(h.entered_[i].front(), 1u);  // first real view
    EXPECT_EQ(h.pacemakers_[i]->current_view(), 1u);
  }
}

TEST(PacemakerTest, TimeoutsDriveViewsOnSchedule) {
  // Without progress, views advance at tau intervals per the StartTime
  // schedule: view v+k starts at tc_time + k*tau.
  PacemakerHarness h(4, 1, Millis(10), Millis(1), false);
  h.StartAll();
  h.sim_.RunUntil(Millis(45));
  for (uint32_t i = 0; i < 4; ++i) {
    // Within 45ms: enter view 1 (~0), timeout drives views ~ every 10ms,
    // plus an epoch sync every f+1 = 2 views.
    EXPECT_GE(h.pacemakers_[i]->current_view(), 3u);
    EXPECT_FALSE(h.timeouts_[i].empty());
  }
  // All replicas agree on the view (same schedule).
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h.pacemakers_[i]->current_view(), h.pacemakers_[0]->current_view());
  }
}

TEST(PacemakerTest, FastPathOutrunsTimers) {
  // With instant progress, views advance far faster than tau.
  PacemakerHarness h(4, 1, Millis(100), Millis(1), /*instant_progress=*/true);
  h.StartAll();
  h.sim_.RunUntil(Millis(50));
  // In 50ms with ~10us views plus epoch syncs every 2 views, we should have
  // gone through many views although not a single tau elapsed.
  EXPECT_GT(h.pacemakers_[0]->current_view(), 20u);
  EXPECT_TRUE(h.timeouts_[0].empty());
}

TEST(PacemakerTest, EpochBoundaryRequiresSynchronization) {
  PacemakerHarness h(4, 1, Millis(10), Millis(1), true);
  h.StartAll();
  h.sim_.RunUntil(Millis(50));
  // f+1 = 2 views per epoch: epochs synchronized repeatedly.
  EXPECT_GT(h.pacemakers_[0]->epochs_synchronized(), 5u);
}

TEST(PacemakerTest, EnteredAtTracksEntryTime) {
  PacemakerHarness h(4, 1, Millis(10), Millis(2), false);
  h.StartAll();
  h.sim_.RunUntil(Millis(5));
  const Pacemaker& p = *h.pacemakers_[0];
  EXPECT_GE(p.entered_at(), 0);
  EXPECT_EQ(p.share_timer_deadline(), p.entered_at() + 3 * Millis(2));
}

TEST(PacemakerTest, EpochStartArithmetic) {
  PacemakerHarness h(7, 2, Millis(10), Millis(1), false);
  const Pacemaker& p = *h.pacemakers_[0];
  EXPECT_EQ(p.EpochStart(0), 0u);
  EXPECT_EQ(p.EpochStart(2), 0u);
  EXPECT_EQ(p.EpochStart(3), 3u);  // f+1 = 3
  EXPECT_EQ(p.EpochStart(5), 3u);
  EXPECT_EQ(p.EpochStart(6), 6u);
}

TEST(PacemakerTest, CrashedMinorityDoesNotBlockSync) {
  PacemakerHarness h(4, 1, Millis(10), Millis(1), false);
  h.net_.Crash(3);
  h.StartAll();
  h.sim_.RunUntil(Millis(60));
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_GE(h.pacemakers_[i]->current_view(), 3u) << i;
  }
}

TEST(PacemakerTest, WishStateStaysBoundedOver10kViews) {
  // Regression: wishes_ / tc_handled_ used to grow one entry per epoch for
  // the lifetime of the run (an unbounded-memory bug in long experiments).
  // EnterView now prunes every view below the current epoch start, so after
  // 10k views the resident state is the current boundary plus at most a
  // wish/TC that arrived early for the next one — a small constant, not ~5k.
  PacemakerHarness h(4, 1, Millis(100), Millis(1), /*instant_progress=*/true);
  h.StartAll();
  SimTime t = 0;
  while (h.pacemakers_[0]->current_view() < 10'000 && t < Millis(20'000)) {
    t += Millis(100);
    h.sim_.RunUntil(t);
  }
  ASSERT_GE(h.pacemakers_[0]->current_view(), 10'000u);
  for (uint32_t i = 0; i < h.n_; ++i) {
    EXPECT_LE(h.pacemakers_[i]->wish_state_size(), 4u) << "replica " << i;
    EXPECT_LE(h.pacemakers_[i]->tc_handled_size(), 4u) << "replica " << i;
  }
}

TEST(PacemakerTest, LaggardJumpsForwardOnTc) {
  // Replica 3 misses the first TC (crashed during sync, then recovers): a
  // later TC pulls it to the current epoch.
  PacemakerHarness h(4, 1, Millis(10), Millis(1), false);
  h.net_.Crash(3);
  h.StartAll();
  h.sim_.RunUntil(Millis(15));
  EXPECT_EQ(h.pacemakers_[3]->current_view(), 0u);
  h.net_.Recover(3);
  h.sim_.RunUntil(Millis(80));
  // Replica 3 re-joins via a subsequent epoch's TC broadcast.
  EXPECT_GE(h.pacemakers_[3]->current_view(),
            h.pacemakers_[0]->current_view() > 2
                ? h.pacemakers_[0]->current_view() - 2
                : 1);
}

}  // namespace
}  // namespace hotstuff1
