#include "runtime/adversary.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parse.h"

namespace hotstuff1 {

AdversarySpec AdversaryPlan::SpecFor(ReplicaId r) const {
  AdversarySpec spec;
  if (!faulty_mask || !(*faulty_mask)[r]) return spec;
  spec.fault = fault;
  spec.collude = (fault != Fault::kNone && fault != Fault::kCrash) ||
                 (schedule && schedule->HasAction(kActEquivocate));
  spec.faulty = faulty_mask;
  spec.rollback_victims = rollback_victims;
  spec.schedule = schedule;
  return spec;
}

AdversaryPlan MakeAdversaryPlan(uint32_t n, Fault fault, uint32_t count,
                                uint32_t rollback_victims,
                                StrategySchedule schedule) {
  HS1_CHECK_LT(count, n);
  AdversaryPlan plan;
  plan.fault = fault;
  // |S| <= f (see header): over-asking for victims silently models a
  // different, client-safety-breaking adversary, so clamp instead.
  plan.rollback_victims = std::min(rollback_victims, (n - 1) / 3);
  auto mask = std::make_shared<std::vector<bool>>(n, false);
  for (uint32_t i = 1; i <= count && i < n; ++i) {
    plan.members.push_back(i);
    (*mask)[i] = true;
  }
  plan.faulty_mask = std::move(mask);
  if (!schedule.empty()) {
    HS1_CHECK_GE(schedule.epoch_length, 1);  // callers resolve before planning
    plan.schedule = std::make_shared<const StrategySchedule>(std::move(schedule));
  }
  return plan;
}

std::vector<bool> RollbackVictimMask(uint32_t n, const std::vector<bool>* faulty,
                                     uint32_t victims) {
  std::vector<bool> mask(n, false);
  uint32_t chosen = 0;
  for (ReplicaId r = 0; r < n && chosen < victims; ++r) {
    if (faulty != nullptr && (*faulty)[r]) continue;
    mask[r] = true;
    ++chosen;
  }
  return mask;
}

namespace {

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

/// Parses "<id>|<lo>-<hi>" terms joined by '+' into an id list (e.g.
/// "0-3+8" -> {0,1,2,3,8}). Returns false on malformed or empty input.
bool ParseIdList(const std::string& s, std::vector<uint32_t>* out) {
  for (const std::string& part : Split(s, '+')) {
    int64_t lo = 0, hi = 0;
    const size_t dash = part.find('-');
    if (dash == std::string::npos) {
      if (!ParseNumber(part, &lo)) return false;
      out->push_back(static_cast<uint32_t>(lo));
    } else {
      if (!ParseNumber(part.substr(0, dash), &lo) ||
          !ParseNumber(part.substr(dash + 1), &hi) || hi < lo) {
        return false;
      }
      for (int64_t i = lo; i <= hi; ++i) out->push_back(static_cast<uint32_t>(i));
    }
  }
  return !out->empty();
}

/// Canonical text form of an id list: maximal runs re-compressed to
/// "lo-hi", joined by '+'.
std::string FormatIdList(const std::vector<uint32_t>& ids) {
  std::string out;
  size_t i = 0;
  while (i < ids.size()) {
    size_t j = i;
    while (j + 1 < ids.size() && ids[j + 1] == ids[j] + 1) ++j;
    if (!out.empty()) out += "+";
    out += std::to_string(ids[i]);
    if (j > i) out += "-" + std::to_string(ids[j]);
    i = j + 1;
  }
  return out;
}

bool ParseEntry(const std::string& segment, StrategyEntry* out,
                std::string* error) {
  const size_t colon = segment.find(':');
  if (colon == std::string::npos) {
    return Fail(error, "strategy entry '" + segment + "' lacks ':'");
  }
  const std::string range = segment.substr(0, colon);
  StrategyEntry entry;
  int64_t from = 0, to = 0;
  const size_t dash = range.find('-');
  if (dash == std::string::npos) {
    if (!ParseNumber(range, &from)) {
      return Fail(error, "bad epoch '" + range + "'");
    }
    entry.from_epoch = static_cast<uint32_t>(from);
    entry.to_epoch = entry.from_epoch + 1;  // single epoch
  } else {
    if (!ParseNumber(range.substr(0, dash), &from)) {
      return Fail(error, "bad epoch range '" + range + "'");
    }
    entry.from_epoch = static_cast<uint32_t>(from);
    const std::string to_str = range.substr(dash + 1);
    if (to_str.empty()) {
      entry.to_epoch = kEpochForever;
    } else if (ParseNumber(to_str, &to) && to > from) {
      entry.to_epoch = static_cast<uint32_t>(to);
    } else {
      return Fail(error, "bad epoch range '" + range + "' (want to > from)");
    }
  }
  for (const std::string& action : Split(segment.substr(colon + 1), ',')) {
    if (action == "equivocate") {
      entry.actions |= kActEquivocate;
    } else if (action == "withhold") {
      entry.actions |= kActWithhold;
    } else if (action == "target-leader") {
      entry.actions |= kActTargetLeader;
    } else if (action.rfind("delay=", 0) == 0) {
      int64_t us = 0;
      if (!ParseNumber(action.substr(6), &us) || us <= 0) {
        return Fail(error, "bad '" + action + "' (want delay=<positive us>)");
      }
      entry.actions |= kActDelay;
      entry.delay = us;
    } else if (action.rfind("partition=", 0) == 0) {
      std::vector<std::vector<uint32_t>> groups;
      std::vector<bool> seen;
      for (const std::string& g : Split(action.substr(10), '|')) {
        std::vector<uint32_t> ids;
        if (!ParseIdList(g, &ids)) {
          return Fail(error, "bad '" + action +
                                 "' (want partition=<ids>('|'<ids>)+, ids as "
                                 "<id> or <lo>-<hi> joined by '+')");
        }
        for (const uint32_t id : ids) {
          if (id >= seen.size()) seen.resize(id + 1, false);
          if (seen[id]) {
            return Fail(error, "bad '" + action + "' (replica " +
                                   std::to_string(id) + " in two groups)");
          }
          seen[id] = true;
        }
        groups.push_back(std::move(ids));
      }
      if (groups.size() < 2) {
        return Fail(error, "bad '" + action + "' (want >= 2 groups)");
      }
      entry.actions |= kActPartition;
      entry.partition = std::move(groups);
    } else if (action.rfind("outage=", 0) == 0) {
      std::vector<uint32_t> regions;
      if (!ParseIdList(action.substr(7), &regions)) {
        return Fail(error,
                    "bad '" + action + "' (want outage=<region>('+'<region>)*)");
      }
      entry.actions |= kActOutage;
      entry.outage_regions = std::move(regions);
    } else if (action.rfind("jitter=", 0) == 0) {
      int64_t pct = 0;
      if (!ParseNumber(action.substr(7), &pct) || pct <= 0 || pct > 1000) {
        return Fail(error, "bad '" + action + "' (want jitter=<pct in 1..1000>)");
      }
      entry.actions |= kActJitter;
      entry.jitter_pct = static_cast<uint32_t>(pct);
    } else {
      return Fail(error, "unknown strategy action '" + action +
                             "' (want equivocate|withhold|delay=<us>|"
                             "target-leader|partition=<groups>|"
                             "outage=<regions>|jitter=<pct>)");
    }
  }
  if (entry.actions == kActNone) {
    return Fail(error, "strategy entry '" + segment + "' has no actions");
  }
  *out = entry;
  return true;
}

}  // namespace

bool ParseStrategySchedule(const std::string& text, StrategySchedule* out,
                           std::string* error) {
  StrategySchedule schedule;
  if (text.empty()) {
    *out = schedule;
    return true;
  }
  for (const std::string& segment : Split(text, ';')) {
    if (segment.empty()) continue;
    int64_t v = 0;
    if (segment.rfind("epoch=", 0) == 0) {
      if (!ParseNumber(segment.substr(6), &v) || v <= 0) {
        return Fail(error, "bad '" + segment + "' (want epoch=<positive us>)");
      }
      schedule.epoch_length = v;
    } else if (segment.rfind("gst=", 0) == 0) {
      if (!ParseNumber(segment.substr(4), &v)) {
        return Fail(error, "bad '" + segment + "' (want gst=<us>)");
      }
      schedule.declared_gst = v;
    } else {
      StrategyEntry entry;
      if (!ParseEntry(segment, &entry, error)) return false;
      schedule.entries.push_back(entry);
    }
  }
  if (schedule.entries.empty()) {
    return Fail(error, "strategy '" + text + "' has no entries");
  }
  *out = schedule;
  return true;
}

std::string FormatStrategySchedule(const StrategySchedule& schedule) {
  std::string out;
  for (const StrategyEntry& e : schedule.entries) {
    if (!out.empty()) out += ";";
    out += std::to_string(e.from_epoch);
    if (e.to_epoch == kEpochForever) {
      out += "-";
    } else if (e.to_epoch != e.from_epoch + 1) {
      out += "-" + std::to_string(e.to_epoch);
    }
    out += ":";
    bool first = true;
    const auto add = [&](const std::string& s) {
      if (!first) out += ",";
      out += s;
      first = false;
    };
    if (e.actions & kActEquivocate) add("equivocate");
    if (e.actions & kActWithhold) add("withhold");
    if (e.actions & kActDelay) add("delay=" + std::to_string(e.delay));
    if (e.actions & kActTargetLeader) add("target-leader");
    if (e.actions & kActPartition) {
      std::string p = "partition=";
      for (size_t g = 0; g < e.partition.size(); ++g) {
        if (g > 0) p += "|";
        p += FormatIdList(e.partition[g]);
      }
      add(p);
    }
    if (e.actions & kActOutage) add("outage=" + FormatIdList(e.outage_regions));
    if (e.actions & kActJitter) add("jitter=" + std::to_string(e.jitter_pct));
  }
  if (schedule.epoch_length > 0) {
    out += ";epoch=" + std::to_string(schedule.epoch_length);
  }
  if (schedule.declared_gst != StrategySchedule::kGstAuto) {
    out += ";gst=" + std::to_string(schedule.declared_gst);
  }
  return out;
}

}  // namespace hotstuff1
