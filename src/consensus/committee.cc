#include "consensus/committee.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parse.h"

namespace hotstuff1 {

bool Committee::Contains(ReplicaId r) const {
  return std::binary_search(members.begin(), members.end(), r);
}

const Committee& CommitteeSchedule::AtEpoch(uint32_t epoch) const {
  HS1_CHECK(!steps.empty()) << "AtEpoch on an empty committee schedule";
  // Last step with from_epoch <= epoch; steps are strictly increasing and
  // steps[0].from_epoch == 0, so the scan always lands.
  size_t i = steps.size();
  while (i > 0 && steps[i - 1].from_epoch > epoch) --i;
  HS1_CHECK_GE(i, 1u);
  return steps[i - 1].committee;
}

ReplicaId CommitteeSchedule::MaxMember() const {
  ReplicaId max = 0;
  for (const CommitteeStep& s : steps) {
    if (!s.committee.members.empty()) max = std::max(max, s.committee.members.back());
  }
  return max;
}

uint32_t CommitteeSchedule::MinN() const {
  uint32_t min = UINT32_MAX;
  for (const CommitteeStep& s : steps) min = std::min(min, s.committee.n());
  return min;
}

uint32_t CommitteeSchedule::MinF() const {
  uint32_t min = UINT32_MAX;
  for (const CommitteeStep& s : steps) min = std::min(min, s.committee.f());
  return min;
}

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

// ParseNumber bounded to 9 digits, keeping downstream arithmetic safe.
bool ParseStrictUint(const std::string& s, uint64_t* out) {
  int64_t v = 0;
  if (s.size() > 9 || !ParseNumber(s, &v)) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

bool ParseCommitteeSchedule(const std::string& text, CommitteeSchedule* out,
                            std::string* error) {
  CommitteeSchedule sched;
  for (const std::string& seg : Split(text, ';')) {
    if (seg.empty()) continue;
    const size_t colon = seg.find(':');
    if (colon == std::string::npos) {
      return Fail(error, "committee step without ':': '" + seg + "'");
    }
    uint64_t epoch = 0;
    if (!ParseStrictUint(seg.substr(0, colon), &epoch)) {
      return Fail(error, "bad epoch in committee step: '" + seg + "'");
    }
    CommitteeStep step;
    step.from_epoch = static_cast<uint32_t>(epoch);
    for (const std::string& range : Split(seg.substr(colon + 1), '+')) {
      const size_t dash = range.find('-');
      uint64_t lo = 0, hi = 0;
      if (dash == std::string::npos) {
        if (!ParseStrictUint(range, &lo)) {
          return Fail(error, "bad member id: '" + range + "'");
        }
        hi = lo;
      } else {
        if (!ParseStrictUint(range.substr(0, dash), &lo) ||
            !ParseStrictUint(range.substr(dash + 1), &hi) || hi < lo) {
          return Fail(error, "bad member range: '" + range + "'");
        }
      }
      for (uint64_t id = lo; id <= hi; ++id) {
        step.committee.members.push_back(static_cast<ReplicaId>(id));
      }
    }
    std::sort(step.committee.members.begin(), step.committee.members.end());
    if (std::adjacent_find(step.committee.members.begin(),
                           step.committee.members.end()) !=
        step.committee.members.end()) {
      return Fail(error, "duplicate member in committee step: '" + seg + "'");
    }
    if (step.committee.n() < 4) {
      return Fail(error, "committee needs >= 4 members: '" + seg + "'");
    }
    if (!sched.steps.empty() && step.from_epoch <= sched.steps.back().from_epoch) {
      return Fail(error, "committee step epochs must strictly increase: '" + seg + "'");
    }
    sched.steps.push_back(std::move(step));
  }
  if (!sched.steps.empty() && sched.steps.front().from_epoch != 0) {
    return Fail(error, "committee schedule must start at epoch 0");
  }
  *out = std::move(sched);
  return true;
}

std::string FormatCommitteeSchedule(const CommitteeSchedule& s) {
  std::string text;
  for (const CommitteeStep& step : s.steps) {
    if (!text.empty()) text += ';';
    text += std::to_string(step.from_epoch);
    text += ':';
    // Re-compress the sorted id list into maximal inclusive ranges.
    const std::vector<ReplicaId>& m = step.committee.members;
    for (size_t i = 0; i < m.size();) {
      size_t j = i;
      while (j + 1 < m.size() && m[j + 1] == m[j] + 1) ++j;
      if (i > 0) text += '+';
      text += std::to_string(m[i]);
      if (j > i) text += '-' + std::to_string(m[j]);
      i = j + 1;
    }
  }
  return text;
}

}  // namespace hotstuff1
