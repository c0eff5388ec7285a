// One-bit memo of a verification verdict, stored on the object it vouches
// for. A message is one immutable object shared by every recipient, so the
// first replica to check it in full can record "valid" on it and the others
// skip the repeated work. Replicas running on different executor threads may
// check one shared message at once; they all store the same value, so
// relaxed ordering suffices. Only a passing full check sets the memo, and a
// copy or assignment never carries it: a rebuilt or relayed object is
// checked in full.

#ifndef HOTSTUFF1_COMMON_VERDICT_MEMO_H_
#define HOTSTUFF1_COMMON_VERDICT_MEMO_H_

#include <atomic>

namespace hotstuff1 {

class VerdictMemo {
 public:
  VerdictMemo() = default;
  VerdictMemo(const VerdictMemo&) {}
  VerdictMemo& operator=(const VerdictMemo&) {
    ok_.store(false, std::memory_order_relaxed);
    return *this;
  }

  bool get() const { return ok_.load(std::memory_order_relaxed); }
  void Set() const { ok_.store(true, std::memory_order_relaxed); }

 private:
  mutable std::atomic<bool> ok_{false};
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_VERDICT_MEMO_H_
